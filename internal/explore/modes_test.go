package explore

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// TestFuzzModesBitIdentical is the cross-mode determinism contract at the
// campaign level: for every named target, the builder path (fresh coroutine
// run per schedule) and the pooled path (reused direct-dispatch or
// Reset-respawned run per worker) fold to bit-identical summaries, at any
// worker count.
func TestFuzzModesBitIdentical(t *testing.T) {
	t.Parallel()
	const (
		n     = 3
		steps = 120
		seeds = 24
		base  = int64(5)
	)
	crashes := []map[procset.ID]int{nil, {1: 7}}
	for _, name := range []string{TargetCommitAdopt, TargetConsensus, TargetCAChain, TargetKSet, TargetBG} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			build, err := TargetBuilder(name, n)
			if err != nil {
				t.Fatal(err)
			}
			pooled, err := PooledTargetBuilder(name, n)
			if err != nil {
				t.Fatal(err)
			}
			var summaries []campaign.Summary
			for _, workers := range []int{1, 8} {
				rep, _, err := FuzzCampaign(context.Background(), workers, n, steps, seeds, base, crashes, build, nil)
				if err != nil {
					t.Fatalf("builder path (workers=%d): %v", workers, err)
				}
				summaries = append(summaries, rep.Summary)
				prep, _, err := FuzzPooledCampaign(context.Background(), workers, n, steps, seeds, base, crashes, pooled, nil)
				if err != nil {
					t.Fatalf("pooled path (workers=%d): %v", workers, err)
				}
				summaries = append(summaries, prep.Summary)
			}
			for i := 1; i < len(summaries); i++ {
				if !reflect.DeepEqual(summaries[0], summaries[i]) {
					t.Fatalf("summary %d diverges:\n%+v\nvs\n%+v", i, summaries[0], summaries[i])
				}
			}
		})
	}
}

// TestExhaustiveModesBitIdentical covers the exhaustive enumeration the
// same way on the full n=2 interleaving space of commit-adopt.
func TestExhaustiveModesBitIdentical(t *testing.T) {
	t.Parallel()
	rep, runs, err := exhaustiveFresh(2, 2, 10, caBuilder(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	prep, pruns, err := ExhaustivePooledCampaign(context.Background(), 2, 2, 10, caPooled(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if runs != pruns {
		t.Fatalf("run counts differ: %d vs %d", runs, pruns)
	}
	if !reflect.DeepEqual(rep.Summary, prep.Summary) {
		t.Fatalf("summaries diverge:\n%+v\nvs\n%+v", rep.Summary, prep.Summary)
	}
}

// brokenPooledBuilder is the pooled-path mutation test: a machine protocol
// that commits on phase-1 unanimity alone. The pooled explorer must catch
// the violation, proving reused runs don't mask bugs.
func brokenPooledBuilder(n int) PooledBuilder {
	return func() (*Run, error) {
		results := make([]*caResult, n+1)
		runner, err := sim.NewRunner(sim.Config{
			N: n,
			Machine: func(p procset.ID, regs sim.Registry) sim.Machine {
				a := make([]sim.Ref, n+1)
				for q := 1; q <= n; q++ {
					a[q] = regs.Reg(fmt.Sprintf("A[%d]", q))
				}
				q := 0
				unanimous := true
				adopt := int(p)
				var opBuf sim.Op
				return sim.MachineFunc(func(prev any) *sim.Op {
					switch {
					case q == 0:
						q = 1
						opBuf = sim.WriteOp(a[p], int(p))
						return &opBuf
					case q <= n:
						if q > 1 {
							if v, ok := prev.(int); ok && v != int(p) {
								unanimous = false
								if v < adopt {
									adopt = v
								}
							}
						}
						opBuf = sim.ReadOp(a[q])
						q++
						return &opBuf
					default:
						if v, ok := prev.(int); ok && v != int(p) {
							unanimous = false
							if v < adopt {
								adopt = v
							}
						}
						results[p] = &caResult{commit: unanimous, val: adopt}
						return nil
					}
				})
			},
		})
		if err != nil {
			return nil, err
		}
		return &Run{
			Runner: runner,
			Reset:  func() { clear(results) },
			Check: func() error {
				var committed any
				for p := 1; p <= n; p++ {
					if r := results[p]; r != nil && r.commit {
						if committed != nil && committed != r.val {
							return fmt.Errorf("commit disagreement")
						}
						committed = r.val
					}
				}
				if committed == nil {
					return nil
				}
				for p := 1; p <= n; p++ {
					if r := results[p]; r != nil && r.val != committed {
						return fmt.Errorf("adoption mismatch")
					}
				}
				return nil
			},
		}, nil
	}
}

func TestPooledExplorerCatchesBrokenCommitAdopt(t *testing.T) {
	t.Parallel()
	_, _, err := ExhaustivePooledCampaign(context.Background(), 2, 2, 8, brokenPooledBuilder(2), nil)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("broken pooled protocol not caught: %v", err)
	}
}

func TestPooledTargetBuilderUnknown(t *testing.T) {
	t.Parallel()
	if _, err := PooledTargetBuilder("nope", 3); err == nil {
		t.Error("unknown pooled target accepted")
	}
	if _, err := TargetBuilder("nope", 3); err == nil {
		t.Error("unknown target accepted")
	}
}
