// Online per-link timeliness-grade extraction: the message-plane sibling of
// Monitor. Where Monitor watches a schedule and answers "which set is
// timely, with what bound", LinkMonitor watches deliveries and answers
// "which grade does each directed link exhibit, against what probe bound" —
// the same observational stance (it sees only what executed; in-flight
// tails are invisible until delivered) and the same contract (incremental,
// allocation-free on the observation path, answer-equivalent to a batch
// extractor over the recorded delivery log, which ExtractLinkGrades
// implements independently and the equivalence tests pin on every prefix).
//
// The estimator is deterministic, order-independent, and O(1) state per
// link. For a probe bound Δ, per directed link:
//
//   - never delivered → idle
//   - every observed delay ≤ Δ → sync
//   - some delay exceeded Δ, but a message sent after the last over-bound
//     send arrived within Δ → psync, with GST estimate "lastOver+1" (the
//     earliest stabilization step consistent with every observation)
//   - otherwise → async
//
// Delay is delivered-sent in schedule steps, so a recipient that polls
// rarely inflates its links' delays: grades are properties of the observed
// end-to-end behavior, exactly as a real monitor would measure them.

package obs

import (
	"fmt"

	"github.com/settimeliness/settimeliness/internal/procset"
)

// LinkGrade is the extracted per-link classification.
type LinkGrade uint8

// Extracted grades, weakest first. Idle marks links that never delivered.
const (
	LinkIdle LinkGrade = iota
	LinkAsync
	LinkPartialSync
	LinkSync
)

// String returns the grade's short name (matching msgnet's grade names, so
// campaign tallies compare configured vs extracted directly).
func (g LinkGrade) String() string {
	switch g {
	case LinkIdle:
		return "idle"
	case LinkAsync:
		return "async"
	case LinkPartialSync:
		return "psync"
	case LinkSync:
		return "sync"
	default:
		return fmt.Sprintf("LinkGrade(%d)", int(g))
	}
}

// LinkStatus is one directed link's extracted state.
type LinkStatus struct {
	From, To procset.ID
	// Delivered counts observed deliveries.
	Delivered int64
	// MaxDelay is the largest observed delivered-sent delay.
	MaxDelay int
	// LastOverSent is the latest send step whose delay exceeded the probe
	// bound (-1 when none did).
	LastOverSent int
	// LastOKSent is the latest send step whose delay was within the probe
	// bound (-1 when none was).
	LastOKSent int
	// Grade is the classification under the monitor's probe bound.
	Grade LinkGrade
	// GSTEstimate is the earliest stabilization step consistent with the
	// observations (only meaningful for LinkPartialSync).
	GSTEstimate int
}

// Delivery is one recorded delivery event — the batch extractor's input,
// and exactly what msgnet's OnDeliver hook reports.
type Delivery struct {
	From, To  procset.ID
	SentStep  int
	Delivered int
}

// linkCell is the per-link incremental state: three running maxima and a
// counter, all order-independent folds.
type linkCell struct {
	delivered  int64
	maxDelay   int32
	lastOver   int32 // latest over-bound send step, -1 none
	lastOKSent int32 // latest in-bound send step, -1 none
}

// LinkMonitor incrementally extracts per-link grades from deliveries.
// Observation-path methods are allocation-free and stepping-goroutine only,
// like the substrate that feeds them.
type LinkMonitor struct {
	n     int
	delta int
	cells []linkCell // (from-1)*n + (to-1)
}

// NewLinkMonitor returns a monitor for n processes probing bound delta.
func NewLinkMonitor(n, delta int) (*LinkMonitor, error) {
	if n < 1 || n > procset.MaxProcs {
		return nil, fmt.Errorf("obs: link monitor n = %d out of range [1,%d]", n, procset.MaxProcs)
	}
	if delta < 1 {
		return nil, fmt.Errorf("obs: link monitor probe bound %d < 1", delta)
	}
	m := &LinkMonitor{n: n, delta: delta, cells: make([]linkCell, n*n)}
	m.Reset()
	return m, nil
}

// Delta returns the probe bound the monitor classifies against.
func (m *LinkMonitor) Delta() int { return m.delta }

// Reset reverts the monitor to its initial state (pool-friendly, like every
// observability-plane Reset).
func (m *LinkMonitor) Reset() {
	for i := range m.cells {
		m.cells[i] = linkCell{lastOver: -1, lastOKSent: -1}
	}
}

// Observe records one delivery. Signature-compatible with msgnet's
// Config.OnDeliver hook.
func (m *LinkMonitor) Observe(from, to procset.ID, sentStep, deliveredStep int) {
	c := &m.cells[(int(from)-1)*m.n+int(to)-1]
	c.delivered++
	delay := deliveredStep - sentStep
	if int32(delay) > c.maxDelay {
		c.maxDelay = int32(delay)
	}
	if delay > m.delta {
		if int32(sentStep) > c.lastOver {
			c.lastOver = int32(sentStep)
		}
	} else if int32(sentStep) > c.lastOKSent {
		c.lastOKSent = int32(sentStep)
	}
}

// Status returns the extracted state of the directed link from→to.
func (m *LinkMonitor) Status(from, to procset.ID) LinkStatus {
	c := &m.cells[(int(from)-1)*m.n+int(to)-1]
	return classify(from, to, c.delivered, int(c.maxDelay), int(c.lastOver), int(c.lastOKSent))
}

// classify applies the estimator to one link's folded state — shared by the
// online monitor and the batch extractor, so the two can only diverge in
// the fold itself (which is what the equivalence tests exercise).
func classify(from, to procset.ID, delivered int64, maxDelay, lastOver, lastOKSent int) LinkStatus {
	s := LinkStatus{
		From:         from,
		To:           to,
		Delivered:    delivered,
		MaxDelay:     maxDelay,
		LastOverSent: lastOver,
		LastOKSent:   lastOKSent,
	}
	switch {
	case delivered == 0:
		s.Grade = LinkIdle
	case lastOver < 0:
		s.Grade = LinkSync
	case lastOKSent > lastOver:
		s.Grade = LinkPartialSync
		s.GSTEstimate = lastOver + 1
	default:
		s.Grade = LinkAsync
	}
	return s
}

// Snapshot returns every inter-process link's status in deterministic
// row-major order (from ascending, then to ascending, self-links skipped) —
// the per-link grade output campaigns fold, so its order is part of the
// bit-identical-at-any-worker-count contract.
func (m *LinkMonitor) Snapshot() []LinkStatus {
	out := make([]LinkStatus, 0, m.n*(m.n-1))
	for from := 1; from <= m.n; from++ {
		for to := 1; to <= m.n; to++ {
			if from == to {
				continue
			}
			out = append(out, m.Status(procset.ID(from), procset.ID(to)))
		}
	}
	return out
}

// FormatLinkGrades renders statuses in their given order.
func FormatLinkGrades(statuses []LinkStatus) string {
	out := make([]byte, 0, 16*len(statuses))
	for i, s := range statuses {
		if i > 0 {
			out = append(out, ' ')
		}
		out = fmt.Appendf(out, "%d→%d:%s", int(s.From), int(s.To), s.Grade)
		if s.Grade == LinkPartialSync {
			out = fmt.Appendf(out, "(gst≈%d)", s.GSTEstimate)
		}
	}
	return string(out)
}

// ExtractLinkGrades is the batch reference extractor: fold a recorded
// delivery log in one pass and classify. Answer-equivalent to a LinkMonitor
// observing the same deliveries — on every prefix, since both folds are
// order-independent maxima.
func ExtractLinkGrades(n, delta int, log []Delivery) ([]LinkStatus, error) {
	if n < 1 || n > procset.MaxProcs {
		return nil, fmt.Errorf("obs: link extractor n = %d out of range [1,%d]", n, procset.MaxProcs)
	}
	if delta < 1 {
		return nil, fmt.Errorf("obs: link extractor probe bound %d < 1", delta)
	}
	type acc struct {
		delivered        int64
		maxDelay         int
		lastOver, lastOK int
	}
	cells := make([]acc, n*n)
	for i := range cells {
		cells[i].lastOver, cells[i].lastOK = -1, -1
	}
	for _, d := range log {
		if d.From < 1 || procset.ID(n) < d.From || d.To < 1 || procset.ID(n) < d.To {
			return nil, fmt.Errorf("obs: delivery %v→%v outside Π%d", d.From, d.To, n)
		}
		c := &cells[(int(d.From)-1)*n+int(d.To)-1]
		c.delivered++
		delay := d.Delivered - d.SentStep
		c.maxDelay = max(c.maxDelay, delay)
		if delay > delta {
			c.lastOver = max(c.lastOver, d.SentStep)
		} else {
			c.lastOK = max(c.lastOK, d.SentStep)
		}
	}
	out := make([]LinkStatus, 0, n*(n-1))
	for from := 1; from <= n; from++ {
		for to := 1; to <= n; to++ {
			if from == to {
				continue
			}
			c := &cells[(from-1)*n+to-1]
			out = append(out, classify(procset.ID(from), procset.ID(to), c.delivered, c.maxDelay, c.lastOver, c.lastOK))
		}
	}
	return out, nil
}
