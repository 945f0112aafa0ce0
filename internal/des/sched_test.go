package des

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

var testClasses = []string{"demand-fetch", "grad-read", "prefetch", "flush", "checkpoint", "migration"}

// TestSchedPriorityOrder: with one worker busy, a later-submitted urgent op
// overtakes earlier low-priority ops.
func TestSchedPriorityOrder(t *testing.T) {
	sim := New()
	sched := sim.NewSched("disk", SchedConfig{Workers: 1, Classes: testClasses})
	var order []string
	mk := func(name string) func(p *Proc) {
		return func(p *Proc) {
			p.Sleep(0.01)
			order = append(order, name)
		}
	}
	sim.Spawn("client", func(p *Proc) {
		// First op occupies the worker; the rest queue.
		first := sched.Submit(5, "m0", 1, mk("m0"))
		p.Sleep(0.001)
		c1 := sched.Submit(4, "c1", 1, mk("c1"))
		f1 := sched.Submit(3, "f1", 1, mk("f1"))
		d1 := sched.Submit(0, "d1", 1, mk("d1"))
		for _, op := range []*SchedOp{first, c1, f1, d1} {
			op.Wait(p)
		}
		sched.Close()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"m0", "d1", "f1", "c1"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("service order = %v, want %v", order, want)
	}
}

// TestSchedAging: an op past the aging threshold is served before a more
// urgent newcomer.
func TestSchedAging(t *testing.T) {
	sim := New()
	sched := sim.NewSched("disk", SchedConfig{Workers: 1, Classes: testClasses, Aging: 0.05})
	var order []string
	mk := func(name string) func(p *Proc) {
		return func(p *Proc) {
			p.Sleep(0.01)
			order = append(order, name)
		}
	}
	sim.Spawn("client", func(p *Proc) {
		busy := sched.Submit(0, "busy", 1, func(p *Proc) { p.Sleep(0.2) })
		p.Sleep(0.001)
		old := sched.Submit(5, "old-migration", 1, mk("old-migration"))
		p.Sleep(0.15) // old-migration has now aged past 50ms
		young := sched.Submit(0, "young-demand", 1, mk("young-demand"))
		for _, op := range []*SchedOp{busy, old, young} {
			op.Wait(p)
		}
		sched.Close()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"old-migration", "young-demand"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("service order = %v, want %v", order, want)
	}
	if qd := sched.ClassStats(5).QueueDelay; qd < 0.05 {
		t.Fatalf("aged op queue delay = %v, want >= aging threshold", qd)
	}
}

// TestSchedPromote: a queued prefetch promoted to demand overtakes flushes.
func TestSchedPromote(t *testing.T) {
	sim := New()
	sched := sim.NewSched("disk", SchedConfig{Workers: 1, Classes: testClasses})
	var order []string
	mk := func(name string) func(p *Proc) {
		return func(p *Proc) {
			p.Sleep(0.01)
			order = append(order, name)
		}
	}
	sim.Spawn("client", func(p *Proc) {
		busy := sched.Submit(0, "busy", 1, func(p *Proc) { p.Sleep(0.05) })
		p.Sleep(0.001)
		f1 := sched.Submit(3, "f1", 1, mk("f1"))
		pf := sched.Submit(2, "pf", 1, mk("pf"))
		sched.Promote(pf) // consumer caught up: prefetch is now demand
		for _, op := range []*SchedOp{busy, f1, pf} {
			op.Wait(p)
		}
		sched.Close()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"pf", "f1"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("service order = %v, want %v", order, want)
	}
}

// TestSchedOverheadCoalescing: per-op overhead makes k separate ops cost
// k*overhead while one coalesced op of the same bytes pays it once — the
// economics of PR 8's vectored fetch batching, visible in the sim.
func TestSchedOverheadCoalescing(t *testing.T) {
	const overhead = 0.001
	run := func(batch bool) float64 {
		sim := New()
		link := sim.NewLink("dev", 1e9, nil)
		sched := sim.NewSched("disk", SchedConfig{Workers: 1, Classes: testClasses, Overhead: overhead})
		var elapsed float64
		sim.Spawn("client", func(p *Proc) {
			t0 := p.Now()
			var ops []*SchedOp
			if batch {
				ops = append(ops, sched.Submit(2, "batch", 8e6, func(p *Proc) { link.Transfer(p, 8e6) }))
			} else {
				for i := 0; i < 8; i++ {
					ops = append(ops, sched.Submit(2, fmt.Sprintf("op%d", i), 1e6, func(p *Proc) { link.Transfer(p, 1e6) }))
				}
			}
			for _, op := range ops {
				op.Wait(p)
			}
			elapsed = p.Now() - t0
			sched.Close()
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	separate, coalesced := run(false), run(true)
	wantSaved := 7 * overhead
	if saved := separate - coalesced; saved < wantSaved*0.99 || saved > wantSaved*1.01 {
		t.Fatalf("coalescing saved %v, want ~%v (separate=%v coalesced=%v)",
			saved, wantSaved, separate, coalesced)
	}
}

// TestSchedStarvedClassDeadlockReport: a wedged device (zero workers) leaves
// the waiter in the deadlock report with its scheduler and class named.
func TestSchedStarvedClassDeadlockReport(t *testing.T) {
	sim := New()
	sched := sim.NewSched("pfs", SchedConfig{Workers: 0, Classes: testClasses})
	sim.Spawn("ckpt-job", func(p *Proc) {
		op := sched.Submit(4, "snapshot", 1<<20, nil)
		op.Wait(p)
	})
	err := sim.Run()
	if err == nil {
		t.Fatal("expected deadlock error, got nil")
	}
	msg := err.Error()
	for _, want := range []string{"deadlock", "ckpt-job", "sched-wait:pfs:checkpoint"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("deadlock report %q missing %q", msg, want)
		}
	}
}

// TestSchedTraceDeterministic: two identical runs with mixed classes, aging,
// and contention produce bit-identical traces.
func TestSchedTraceDeterministic(t *testing.T) {
	run := func() []string {
		var trace []string
		sim := New()
		link := sim.NewLink("dev", 1e8, CappedInterference(0.4, 2))
		sched := sim.NewSched("disk", SchedConfig{
			Workers: 2, Classes: testClasses, Aging: 0.01, Overhead: 1e-4,
			Trace: func(line string) { trace = append(trace, line) },
		})
		clients := 3
		done := 0
		for c := 0; c < clients; c++ {
			cid := c
			sim.Spawn(fmt.Sprintf("client%d", cid), func(p *Proc) {
				for i := 0; i < 5; i++ {
					class := (cid + i) % len(testClasses)
					op := sched.Submit(class, fmt.Sprintf("c%d.%d", cid, i), float64(1e5*(i+1)),
						func(p *Proc) { link.Transfer(p, float64(1e5*(i+1))) })
					op.Wait(p)
				}
				done++
				if done == clients {
					sched.Close()
				}
			})
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("traces differ:\n%v\n%v", a, b)
	}
}

// TestSchedCloseDrainsQueue: Close with ops still queued lets workers drain
// before exiting.
func TestSchedCloseDrainsQueue(t *testing.T) {
	sim := New()
	sched := sim.NewSched("disk", SchedConfig{Workers: 1, Classes: testClasses})
	var last *SchedOp
	sim.Spawn("client", func(p *Proc) {
		for i := 0; i < 4; i++ {
			last = sched.Submit(3, fmt.Sprintf("f%d", i), 1, func(p *Proc) { p.Sleep(0.01) })
		}
		sched.Close()
		last.Wait(p)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !last.Done() {
		t.Fatal("queued op not drained after Close")
	}
	if got := sched.ClassStats(3).Ops; got != 4 {
		t.Fatalf("flush ops = %d, want 4", got)
	}
}
