package obs_test

import (
	"context"
	"strings"
	"testing"

	"github.com/settimeliness/settimeliness/internal/obs"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

func TestFlightContextKnob(t *testing.T) {
	ctx := context.Background()
	if obs.FlightK(ctx) != 0 {
		t.Fatal("bare context requests flight recording")
	}
	if obs.FlightK(obs.WithFlight(ctx, 64)) != 64 {
		t.Fatal("knob did not round-trip")
	}
	if obs.FlightK(obs.WithFlight(ctx, 0)) != 0 || obs.FlightK(obs.WithFlight(ctx, -3)) != 0 {
		t.Fatal("non-positive k must leave recording off")
	}
}

func TestFlightDump(t *testing.T) {
	r, err := sim.NewRunner(sim.Config{
		N: 2,
		Machine: func(p procset.ID, regs sim.Registry) sim.Machine {
			return &pingMachine{reg: regs.Reg("ping")}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if obs.FlightDump(r) != "" {
		t.Fatal("dump without a recorder must be empty")
	}
	r.SetFlightRecorder(sim.NewFlightRecorder(16))
	if obs.FlightDump(r) != "" {
		t.Fatal("dump before any step must be empty")
	}
	src, err := sched.RoundRobin(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(src, 40, 0, nil)
	dump := obs.FlightDump(r)
	if !strings.Contains(dump, "ping") {
		t.Fatalf("dump does not resolve register names:\n%s", dump)
	}
	if got := strings.Count(dump, "\n"); got != 17 {
		t.Fatalf("dump has %d lines, want header + the ring's 16", got)
	}
}
