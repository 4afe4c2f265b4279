// stm-matrix prints the Theorem 27 solvability matrix for a
// (t,k,n)-agreement problem. To validate every cell on the simulator
// (solvable cells must decide and verify; unsolvable cells must stay safe
// without deciding under the adaptive adversary), run the same problem
// through `stm-campaign matrix`.
//
//	stm-matrix -t 3 -k 2 -n 5
//	stm-campaign matrix -t 3 -k 2 -n 5
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/settimeliness/settimeliness/internal/core"
)

func main() {
	var (
		t = flag.Int("t", 3, "resilience t")
		k = flag.Int("k", 2, "agreement parameter k")
		n = flag.Int("n", 5, "number of processes n")
	)
	flag.Parse()
	if err := run(*t, *k, *n); err != nil {
		fmt.Fprintf(os.Stderr, "stm-matrix: %v\n", err)
		os.Exit(1)
	}
}

func run(t, k, n int) error {
	p := core.Problem{T: t, K: k, N: n}
	if err := p.Validate(); err != nil {
		return err
	}
	fmt.Printf("%v — solvable in S^i_{j,%d} iff i ≤ %d and j−i ≥ %d (Theorem 27)\n", p, n, k, t+1-k)
	fmt.Printf("matching system: %v\n\n", p.MatchingSystem())
	fmt.Print("      ")
	for j := 1; j <= n; j++ {
		fmt.Printf("  j=%-2d", j)
	}
	fmt.Println()
	for i := 1; i <= n; i++ {
		fmt.Printf("  i=%-2d", i)
		for j := 1; j <= n; j++ {
			switch {
			case j < i:
				fmt.Print("     -")
			default:
				ok, err := p.SolvableIn(core.Sij(i, j, n))
				if err != nil {
					return err
				}
				if ok {
					fmt.Print("     Y")
				} else {
					fmt.Print("     .")
				}
			}
		}
		fmt.Println()
	}
	return nil
}
