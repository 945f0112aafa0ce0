package main

//mlpvet:allowfile clockcheck the real-time bound on the virtual scenario is itself the assertion

import (
	"testing"
	"time"

	"github.com/datastates/mlpoffload/internal/clock"
)

// TestMixedVirtualSLO runs the checkpoint-storm-vs-demand-fetch scenario
// on a virtual clock and asserts the scheduler SLO: with priority classes
// the p95 demand-fetch latency stays bounded near the device transfer
// time, while FIFO head-of-line blocking pushes it past the classed
// figure. On simulated time the whole contended scenario — previously a
// multi-second wall-clock soak — completes in milliseconds.
func TestMixedVirtualSLO(t *testing.T) {
	const (
		fetches = 32
		size    = 256 << 10
		bw      = 200e6
		depth   = 16
	)
	start := time.Now()
	fifo := mixedMode("fifo", fetches, size, bw, depth, true)
	classed := mixedMode("classed", fetches, size, bw, depth, true)
	real := time.Since(start)

	if classed.DemandP95MS <= 0 || fifo.DemandP95MS <= 0 {
		t.Fatalf("degenerate latencies: fifo p95 %.3fms, classed p95 %.3fms",
			fifo.DemandP95MS, classed.DemandP95MS)
	}
	// The SLO: classes must beat FIFO at the tail. Head-of-line blocking
	// behind up to `depth` queued checkpoint writes dominates the FIFO
	// tail; a classed demand fetch only ever waits for the ops already on
	// the workers.
	if classed.DemandP95MS >= fifo.DemandP95MS {
		t.Errorf("classed p95 %.2fms not below fifo p95 %.2fms",
			classed.DemandP95MS, fifo.DemandP95MS)
	}
	// Absolute bound: one object is 1.31ms of device time at this rate;
	// a classed fetch waits at most for the in-flight ops plus its own
	// transfer, with virtual-time inflation from concurrent checkpoint
	// pacing. 25ms of simulated time is an order of magnitude below the
	// FIFO worst case (depth x transfer and up).
	if classed.DemandP95MS > 25 {
		t.Errorf("classed p95 = %.2fms simulated, want <= 25ms", classed.DemandP95MS)
	}
	// The point of -virtual: bandwidth-bound contention in real
	// milliseconds. Generous bound so loaded CI machines do not flake.
	if real > 30*time.Second {
		t.Errorf("virtual scenario took %v of real time", real)
	}
	// The checkpoint stream must still make progress in classed mode —
	// priority must not mean starvation (the aging threshold guarantees
	// it).
	if classed.CheckpointOps == 0 {
		t.Error("classed mode starved the checkpoint stream completely")
	}
}

// TestWaitBacklogVirtualDeterminism pins down the saturation gate's
// virtual-clock behavior: its timeout is measured in simulated time, in
// exact gateTick steps, so the gate burns the same simulated duration on
// any machine under any load — the wall-clock deadline it replaced could
// expire before a loaded CI box ever scheduled the background stream.
func TestWaitBacklogVirtualDeterminism(t *testing.T) {
	newClk := func() (clock.Clock, func()) {
		v := clock.NewVirtual()
		stop := make(chan struct{})
		go v.Drive(stop)
		return v, func() { close(stop) }
	}

	t.Run("timeout elapses in exact simulated time", func(t *testing.T) {
		clk, stop := newClk()
		defer stop()
		// 10ms of simulated timeout is 100 exact gateTick probes; the
		// production 500ms would be 5000 probes of the same arithmetic.
		start := clk.Now()
		if waitBacklog(clk, func() int { return 0 }, 4, 10*time.Millisecond) {
			t.Fatal("backlog never arrived but waitBacklog reported success")
		}
		if got := clk.Since(start); got != 10*time.Millisecond {
			t.Fatalf("gate burned %v of simulated time, want exactly 10ms", got)
		}
	})

	t.Run("present backlog costs no simulated time", func(t *testing.T) {
		clk, stop := newClk()
		defer stop()
		start := clk.Now()
		if !waitBacklog(clk, func() int { return 9 }, 4, 500*time.Millisecond) {
			t.Fatal("backlog present but waitBacklog reported timeout")
		}
		if got := clk.Since(start); got != 0 {
			t.Fatalf("gate burned %v of simulated time, want 0", got)
		}
	})

	t.Run("late backlog costs exactly the probes it took", func(t *testing.T) {
		clk, stop := newClk()
		defer stop()
		start := clk.Now()
		calls := 0
		arrives := func() int {
			calls++
			if calls > 10 {
				return 4
			}
			return 0
		}
		if !waitBacklog(clk, arrives, 4, 500*time.Millisecond) {
			t.Fatal("backlog arrived within the timeout but waitBacklog reported timeout")
		}
		if got, want := clk.Since(start), 10*gateTick; got != want {
			t.Fatalf("gate burned %v of simulated time, want exactly %v (10 probes)", got, want)
		}
	})
}
