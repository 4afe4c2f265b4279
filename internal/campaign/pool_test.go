package campaign

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestPoolReusesEntries(t *testing.T) {
	t.Parallel()
	var built int
	p := NewPool(func() (int, error) {
		built++
		return built, nil
	})
	a, err := p.Get()
	if err != nil || a != 1 {
		t.Fatalf("first Get = (%d, %v)", a, err)
	}
	p.Put(a)
	b, err := p.Get()
	if err != nil || b != 1 {
		t.Fatalf("second Get = (%d, %v), want recycled entry 1", b, err)
	}
	c, _ := p.Get()
	if c != 2 {
		t.Fatalf("concurrent Get = %d, want fresh entry 2", c)
	}
	if built != 2 {
		t.Fatalf("built %d entries, want 2", built)
	}
}

func TestPoolBuildError(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	p := NewPool(func() (int, error) { return 0, boom })
	if _, err := p.Get(); !errors.Is(err, boom) {
		t.Fatalf("Get error = %v, want boom", err)
	}
}

func TestPoolDrain(t *testing.T) {
	t.Parallel()
	p := NewPool(func() (int, error) { return 7, nil })
	e, _ := p.Get()
	p.Put(e)
	var released []int
	p.Drain(func(v int) { released = append(released, v) })
	if len(released) != 1 || released[0] != 7 {
		t.Fatalf("released = %v, want [7]", released)
	}
	p.Drain(func(v int) { t.Fatalf("second Drain released %d: the first left it pooled", v) })
}

// TestPoolBoundedByWorkers runs a pooled campaign and checks the entry
// count never exceeds the worker count, while every job sees an entry.
func TestPoolBoundedByWorkers(t *testing.T) {
	t.Parallel()
	var built atomic.Int32
	p := NewPool(func() (*int, error) {
		built.Add(1)
		v := 0
		return &v, nil
	})
	const workers, jobCount = 4, 64
	jobs := make([]Job, jobCount)
	for i := range jobs {
		jobs[i] = Job{Run: func(ctx context.Context, seed int64) (Outcome, error) {
			e, err := p.Get()
			if err != nil {
				return Outcome{}, err
			}
			defer p.Put(e)
			*e++
			return Outcome{Ok: true, Steps: 1}, nil
		}}
	}
	rep, err := Run(context.Background(), Config{Workers: workers}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Ok != jobCount {
		t.Fatalf("ok = %d, want %d", rep.Summary.Ok, jobCount)
	}
	if got := built.Load(); got > workers {
		t.Fatalf("built %d entries, want ≤ %d workers", got, workers)
	}
	total := 0
	p.Drain(func(e *int) { total += *e })
	if total != jobCount {
		t.Fatalf("pooled entries served %d jobs, want %d", total, jobCount)
	}
}
