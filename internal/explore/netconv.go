// Detector-convergence campaigns over graded link matrices: the message
// plane's analogue of the timeliness matrices. Each named msgnet matrix
// (sync, psync, async, mixed) becomes one campaign job running the heartbeat
// Ω detector over many (schedule seed, delay seed) samples, tallying
//
//   - whether the run CONVERGED (every process agreed on one live leader at
//     the step horizon) and on whom, and
//   - the per-link grades an online obs.LinkMonitor extracted from the
//     deliveries it observed — the measurement side of the sweep: configured
//     grades in, observed grades out.
//
// Everything folds key-wise through the campaign engine, so the whole
// matrix — counts, leader tallies, grade strings — is bit-identical at any
// worker count: the netconv acceptance contract.

package explore

import (
	"cmp"
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/msgnet"
	"github.com/settimeliness/settimeliness/internal/obs"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// NetConvConfig parameterizes a detector-convergence sweep.
type NetConvConfig struct {
	// Matrices are the named link matrices to sweep (msgnet.MatrixNames
	// when empty).
	Matrices []string
	// N is the system size (≥ 2; the mixed matrix needs ≥ 3).
	N int
	// Delta is the timely grades' delivery bound (0 means 2).
	Delta int
	// GST is the partially synchronous grades' stabilization step
	// (0 means Steps/4).
	GST int
	// Probe is the link monitor's classification bound. It must absorb
	// scheduling dilation on top of Delta — a recipient only polls in its
	// recv window, every ~N global steps — so 0 means Delta + 3·N·(N−1),
	// one full broadcast phase of slack.
	Probe int
	// Wild is the unbounded-regime delivery bound (0 means msgnet's
	// default).
	Wild int
	// Runs is the number of (schedule, delays) samples per matrix.
	Runs int
	// Steps is the per-run step horizon.
	Steps int
	// Seed is the master seed; per-job and per-run seeds derive from it.
	Seed int64
	// Workers is the campaign worker count (0 means GOMAXPROCS).
	Workers int
}

// GradeTally counts runs that extracted one particular grade assignment.
type GradeTally struct {
	// Grades is the per-link grade string, without GST estimates (those
	// vary run to run; the shape is the population-level signal).
	Grades string `json:"grades"`
	Count  int    `json:"count"`
}

// LeaderTally counts converged runs per elected leader.
type LeaderTally struct {
	Leader string `json:"leader"`
	Count  int    `json:"count"`
}

// NetCell is one matrix's aggregated sweep result.
type NetCell struct {
	Matrix    string `json:"matrix"`
	Runs      int    `json:"runs"`
	Converged int    `json:"converged"`
	Split     int    `json:"split"`
	// Leaders tallies converged runs by leader, descending count then by
	// leader name.
	Leaders []LeaderTally `json:"leaders,omitempty"`
	// Grades tallies extracted per-link grade assignments the same way.
	Grades []GradeTally `json:"grades,omitempty"`
	// Sample is run 0's full extracted grade string, GST estimates
	// included — one deterministic representative of the cell.
	Sample string `json:"sample,omitempty"`
}

// netConvRig is one reusable rig: a heartbeat workload on a graded network
// with an online link monitor wired into the delivery hook. Per run the
// network and the schedule source are reseeded and the monitor and runner
// reset, all from the run seed.
type netConvRig struct {
	n      int
	net    *msgnet.Net
	hb     *msgnet.Heartbeat
	runner *sim.Runner
	mon    *obs.LinkMonitor
	src    sched.RandomSource
}

func newNetConvRig(matrix string, cfg NetConvConfig) (*netConvRig, error) {
	def, links, err := msgnet.BuildMatrix(matrix, cfg.N, cfg.Delta, cfg.GST)
	if err != nil {
		return nil, err
	}
	mon, err := obs.NewLinkMonitor(cfg.N, cfg.Probe)
	if err != nil {
		return nil, err
	}
	net, err := msgnet.New(msgnet.Config{
		N:         cfg.N,
		Default:   def,
		Links:     links,
		Wild:      cfg.Wild,
		OnDeliver: mon.Observe,
	})
	if err != nil {
		return nil, err
	}
	hb, err := msgnet.NewHeartbeat(msgnet.HeartbeatConfig{N: cfg.N})
	if err != nil {
		return nil, err
	}
	src, err := sched.Random(cfg.N, 0, nil) // reseeded per run
	if err != nil {
		return nil, err
	}
	runner, err := sim.NewRunner(sim.Config{N: cfg.N, Machine: hb.Machine, Network: net})
	if err != nil {
		return nil, err
	}
	return &netConvRig{n: cfg.N, net: net, hb: hb, runner: runner, mon: mon, src: src}, nil
}

// one executes a single sample and reports convergence, the elected leader
// (0 when split), and the extracted grade strings (shape without GST
// estimates, full with them).
func (rig *netConvRig) one(seed int64, steps int) (converged bool, leader procset.ID, shape, full string, err error) {
	rig.net.Reseed(seed)
	rig.mon.Reset()
	if err := rig.runner.Reset(); err != nil {
		return false, 0, "", "", err
	}
	if err := rig.src.Reseed(seed, nil); err != nil {
		return false, 0, "", "", err
	}
	rig.runner.Run(rig.src, steps, 0, nil)
	leader, converged = rig.hb.Agree(procset.FullSet(rig.n))
	statuses := rig.mon.Snapshot()
	return converged, leader, gradeShape(statuses), obs.FormatLinkGrades(statuses), nil
}

// gradeShape renders statuses like obs.FormatLinkGrades but without the GST
// estimates, which vary per run — the tally key.
func gradeShape(statuses []obs.LinkStatus) string {
	var b strings.Builder
	for i, s := range statuses {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d→%d:%s", int(s.From), int(s.To), s.Grade)
	}
	return b.String()
}

// NetConvCampaign sweeps detector convergence over the configured matrices:
// one campaign job per matrix, cfg.Runs samples per job on pooled rigs. It
// returns the campaign report and one NetCell per matrix in input order.
func NetConvCampaign(ctx context.Context, cfg NetConvConfig, onResult func(campaign.Outcome)) (*campaign.Report, []NetCell, error) {
	if cfg.N < 2 || cfg.N > procset.MaxProcs {
		return nil, nil, fmt.Errorf("explore: netconv needs 2 ≤ n ≤ %d, got %d", procset.MaxProcs, cfg.N)
	}
	if cfg.Runs < 1 || cfg.Steps < 1 {
		return nil, nil, fmt.Errorf("explore: netconv needs runs ≥ 1 and steps ≥ 1, got %d and %d", cfg.Runs, cfg.Steps)
	}
	cfg.Delta = cmp.Or(cfg.Delta, 2)
	cfg.GST = cmp.Or(cfg.GST, cfg.Steps/4)
	cfg.Probe = cmp.Or(cfg.Probe, cfg.Delta+3*cfg.N*(cfg.N-1))
	matrices := cfg.Matrices
	if len(matrices) == 0 {
		matrices = msgnet.MatrixNames()
	}
	jobs := make([]campaign.Cell[string], len(matrices))
	for j, m := range matrices {
		jobs[j] = campaign.Cell[string]{Name: "netconv[" + m + "]", Key: m, Hi: cfg.Runs}
	}
	rep, _, err := campaign.RunSweep(ctx, campaign.Sweep[string, *netConvRig, struct{}]{
		Config: campaign.Config{Workers: cfg.Workers, Seed: cfg.Seed, OnResult: onResult},
		Cells:  jobs,
		Build:  func(m string) (*netConvRig, error) { return newNetConvRig(m, cfg) },
		Runner: func(rig *netConvRig) *sim.Runner { return rig.runner },
		Run: func(rig *netConvRig, out *campaign.Outcome, j int, jobSeed int64, i int) (bool, error) {
			matrix := matrices[j]
			ok, leader, shape, full, err := rig.one(campaign.SeedFor(jobSeed, i), cfg.Steps)
			if err != nil {
				return true, err
			}
			if ok {
				out.Tallies["cell["+matrix+"]:converged"]++
				out.Tallies[fmt.Sprintf("leader[%s]:p%d", matrix, leader)]++
			} else {
				out.Tallies["cell["+matrix+"]:split"]++
			}
			out.Tallies["grades["+matrix+"]:"+shape]++
			if i == 0 {
				out.Tallies["sample["+matrix+"]:"+full] = 1
			}
			return false, nil
		},
		Done: func(out *campaign.Outcome, j, runs int) {
			out.Verdict, out.Ok, out.Steps, out.Tallies["runs"] = "converged", true, runs, runs
			if converged := out.Tallies["cell["+matrices[j]+"]:converged"]; converged < runs {
				out.Verdict = fmt.Sprintf("converged %d/%d", converged, runs)
			}
		},
	})
	if err != nil {
		return rep, nil, err
	}

	cells := make([]NetCell, 0, len(matrices))
	for _, matrix := range matrices {
		cell := NetCell{
			Matrix:    matrix,
			Converged: rep.Summary.Tallies["cell["+matrix+"]:converged"],
			Split:     rep.Summary.Tallies["cell["+matrix+"]:split"],
		}
		cell.Runs = cell.Converged + cell.Split
		cell.Leaders = collectTallies(rep.Summary.Tallies, "leader["+matrix+"]:", func(k string, c int) LeaderTally {
			return LeaderTally{Leader: k, Count: c}
		})
		cell.Grades = collectTallies(rep.Summary.Tallies, "grades["+matrix+"]:", func(k string, c int) GradeTally {
			return GradeTally{Grades: k, Count: c}
		})
		for key := range rep.Summary.Tallies {
			if rest, ok := strings.CutPrefix(key, "sample["+matrix+"]:"); ok {
				cell.Sample = rest
				break
			}
		}
		cells = append(cells, cell)
	}
	return rep, cells, nil
}

// collectTallies extracts prefix-keyed tallies into a deterministic slice:
// descending count, then ascending key.
func collectTallies[T any](tallies map[string]int, prefix string, mk func(key string, count int) T) []T {
	type kv struct {
		key   string
		count int
	}
	var rows []kv
	for key, count := range tallies {
		if rest, ok := strings.CutPrefix(key, prefix); ok {
			rows = append(rows, kv{rest, count})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].count != rows[j].count {
			return rows[i].count > rows[j].count
		}
		return rows[i].key < rows[j].key
	})
	out := make([]T, len(rows))
	for i, r := range rows {
		out[i] = mk(r.key, r.count)
	}
	return out
}
