// Package sched implements the schedule formalism of the paper: finite and
// infinite schedules over Πn (§2), the set-timeliness relation of
// Definition 1, generators for the partially synchronous systems S^i_{j,n}
// (§2.2), and adversarial generators used to exercise the impossibility side
// of Theorems 26 and 27.
//
// A schedule is a sequence of process identifiers; a process is correct in an
// infinite schedule if it appears infinitely often. Finite prefixes are
// represented as Schedule values; infinite schedules are represented as
// Source generators that additionally declare which processes they schedule
// infinitely often.
package sched

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/settimeliness/settimeliness/internal/procset"
)

// Schedule is a finite schedule: a sequence of process identifiers.
// It corresponds to an element of pref(Scheds) in the paper.
type Schedule []procset.ID

// Concat returns s · t, the concatenation of two finite schedules.
func (s Schedule) Concat(t Schedule) Schedule {
	out := make(Schedule, 0, len(s)+len(t))
	out = append(out, s...)
	return append(out, t...)
}

// Repeat returns s concatenated with itself count times. Repeat(0) is the
// empty schedule.
func (s Schedule) Repeat(count int) Schedule {
	if count <= 0 {
		return nil
	}
	out := make(Schedule, 0, len(s)*count)
	for i := 0; i < count; i++ {
		out = append(out, s...)
	}
	return out
}

// Steps returns the number of steps taken by processes in q.
func (s Schedule) Steps(q procset.Set) int {
	count := 0
	for _, p := range s {
		if q.Contains(p) {
			count++
		}
	}
	return count
}

// Participants returns the set of processes that take at least one step.
func (s Schedule) Participants() procset.Set {
	var set procset.Set
	for _, p := range s {
		set = set.Add(p)
	}
	return set
}

// String renders the schedule as space-separated process names, e.g.
// "p1 p3 p1".
func (s Schedule) String() string {
	var b strings.Builder
	for i, p := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(p.String())
	}
	return b.String()
}

// Parse parses a schedule in the format produced by String. Bare integers
// are also accepted: "1 3 1".
func Parse(text string) (Schedule, error) {
	fields := strings.Fields(text)
	out := make(Schedule, 0, len(fields))
	for _, f := range fields {
		f = strings.TrimPrefix(f, "p")
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("sched: parse step %q: %w", f, err)
		}
		if v < 1 || v > procset.MaxProcs {
			return nil, fmt.Errorf("sched: step %d out of range [1,%d]", v, procset.MaxProcs)
		}
		out = append(out, procset.ID(v))
	}
	return out, nil
}

// Figure1Prefix builds the first rounds of the schedule from Figure 1 of the
// paper, S = [(p1 · q)^i · (p2 · q)^i] for i = 1..rounds, with p1, p2, q
// given. In this schedule neither {p1} nor {p2} is timely with respect to
// {q}, but {p1, p2} is timely with respect to {q} with bound 1.
func Figure1Prefix(p1, p2, q procset.ID, rounds int) Schedule {
	var out Schedule
	for i := 1; i <= rounds; i++ {
		out = append(out, Schedule{p1, q}.Repeat(i)...)
		out = append(out, Schedule{p2, q}.Repeat(i)...)
	}
	return out
}
