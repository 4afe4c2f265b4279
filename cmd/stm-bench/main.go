// stm-bench runs the experiment suite that regenerates every figure and
// theorem of the paper, printing each experiment's tables and verdict.
//
//	stm-bench                 run everything at full budgets
//	stm-bench -quick          reduced budgets
//	stm-bench -id E5          a single experiment
//	stm-bench -markdown       emit tables as markdown (for EXPERIMENTS.md)
//	stm-bench -json           one machine-readable record per experiment
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"github.com/settimeliness/settimeliness/internal/experiments"
	"github.com/settimeliness/settimeliness/internal/obs"
)

func main() {
	// The profile writers below are deferred; funnel every exit through a
	// normal return so they run (os.Exit would truncate the CPU profile).
	os.Exit(mainRun())
}

func mainRun() int {
	var (
		quick      = flag.Bool("quick", false, "reduced budgets")
		id         = flag.String("id", "", "run a single experiment (E1..E9)")
		seed       = flag.Int64("seed", 1, "base seed")
		markdown   = flag.Bool("markdown", false, "emit tables as markdown")
		jsonOut    = flag.Bool("json", false, "emit one JSON record per experiment (for perf tracking)")
		pprofAddr  = flag.String("pprof", "", "serve pprof and expvar debug endpoints on this address while the suite runs (e.g. localhost:6060)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the suite to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file when the suite finishes")
	)
	flag.Parse()
	// The BG experiments allocate an immutable value per write step, and a
	// short-lived batch tool prefers fewer collections over a small heap.
	// An explicit GOGC still wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stm-bench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "stm-bench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "stm-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects retained allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "stm-bench: %v\n", err)
			}
		}()
	}
	if *pprofAddr != "" {
		ds, err := obs.ServeDebug(*pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stm-bench: %v\n", err)
			return 1
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "stm-bench: debug endpoints on http://%s/debug/\n", ds.Addr())
	}
	if err := run(os.Stdout, *quick, *id, *seed, *markdown, *jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "stm-bench: %v\n", err)
		return 1
	}
	return 0
}

// benchRecord is the -json line emitted per experiment: enough to track the
// reproduction status and wall-clock trajectory across commits.
type benchRecord struct {
	ID        string `json:"id"`
	Title     string `json:"title"`
	Pass      bool   `json:"pass"`
	ElapsedNS int64  `json:"elapsed_ns"`
	Quick     bool   `json:"quick"`
	Seed      int64  `json:"seed"`
}

// benchProgress is the "bench" expvar: where the suite is right now, for
// operators scraping /debug/vars during a long run.
type benchProgress struct {
	Current   string `json:"current,omitempty"`
	Completed int    `json:"completed"`
	Total     int    `json:"total"`
	Failures  int    `json:"failures"`
}

func run(w io.Writer, quick bool, id string, seed int64, markdown, jsonOut bool) error {
	cfg := experiments.Config{Quick: quick, Seed: seed}
	list := experiments.All()
	if id != "" {
		e, err := experiments.ByID(id)
		if err != nil {
			return err
		}
		list = []experiments.Experiment{e}
	}
	var progress atomic.Value
	progress.Store(benchProgress{Total: len(list)})
	obs.Publish("bench", progress.Load)
	enc := json.NewEncoder(w)
	failures := 0
	for i, e := range list {
		progress.Store(benchProgress{Current: e.ID, Completed: i, Total: len(list), Failures: failures})
		start := time.Now()
		res, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		switch {
		case jsonOut:
			if err := enc.Encode(benchRecord{
				ID: res.ID, Title: res.Title, Pass: res.Pass,
				ElapsedNS: int64(time.Since(start)), Quick: quick, Seed: seed,
			}); err != nil {
				return err
			}
		case markdown:
			status := "REPRODUCED"
			if !res.Pass {
				status = "FAILED"
			}
			fmt.Fprintf(w, "### %s — %s [%s]\n\n> %s\n\n", res.ID, res.Title, status, res.Claim)
			for _, note := range res.Notes {
				fmt.Fprintf(w, "*%s*\n\n", note)
			}
			for _, tb := range res.Tables {
				fmt.Fprintln(w, tb.Markdown())
			}
		default:
			fmt.Fprintln(w, res.Render())
			fmt.Fprintln(w)
		}
		if !res.Pass {
			failures++
		}
	}
	progress.Store(benchProgress{Completed: len(list), Total: len(list), Failures: failures})
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) did not reproduce", failures)
	}
	return nil
}
