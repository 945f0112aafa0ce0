package des

import (
	"fmt"
	"testing"
)

func TestEventReleasesWaiters(t *testing.T) {
	s := New()
	ev := s.NewEvent()
	var times []float64
	for i := 0; i < 3; i++ {
		s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			ev.Wait(p)
			times = append(times, p.Now())
		})
	}
	spawnAt(s, 2, "firer", func(p *Proc) {
		ev.Fire()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 {
		t.Fatalf("only %d waiters released", len(times))
	}
	for _, tm := range times {
		if tm != 2 {
			t.Errorf("waiter released at %v, want 2", tm)
		}
	}
	if !ev.Fired() {
		t.Error("Fired() false")
	}
}

func TestEventWaitAfterFire(t *testing.T) {
	s := New()
	ev := s.NewEvent()
	var end float64 = -1
	s.Spawn("firer", func(p *Proc) { ev.Fire() })
	spawnAt(s, 5, "late", func(p *Proc) {
		ev.Wait(p) // returns immediately
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 5 {
		t.Errorf("late waiter at %v, want 5", end)
	}
}

func TestEventDoubleFirePanics(t *testing.T) {
	s := New()
	ev := s.NewEvent()
	s.Spawn("p", func(p *Proc) {
		ev.Fire()
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		ev.Fire()
	})
	_ = s.Run()
}

func TestBarrierSynchronizes(t *testing.T) {
	s := New()
	b := s.NewBarrier(3)
	var releases []float64
	for i := 0; i < 3; i++ {
		delay := float64(i)
		s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(delay)
			b.Await(p)
			releases = append(releases, p.Now())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range releases {
		if r != 2 {
			t.Errorf("released at %v, want 2 (slowest arriver)", r)
		}
	}
	if b.Cycles() != 1 {
		t.Errorf("cycles = %d", b.Cycles())
	}
}

func TestBarrierCyclic(t *testing.T) {
	s := New()
	b := s.NewBarrier(2)
	laps := make(map[string][]float64)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("w%d", i)
		sleep := float64(i + 1)
		s.Spawn(name, func(p *Proc) {
			for k := 0; k < 3; k++ {
				p.Sleep(sleep)
				b.Await(p)
				laps[name] = append(laps[name], p.Now())
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Each cycle gated by the slower (2s) worker: trips at 2, 4, 6.
	for name, ts := range laps {
		want := []float64{2, 4, 6}
		for i := range want {
			if ts[i] != want[i] {
				t.Errorf("%s lap %d at %v, want %v", name, i, ts[i], want[i])
			}
		}
	}
	if b.Cycles() != 3 {
		t.Errorf("cycles = %d", b.Cycles())
	}
}

func TestBarrierSingleParty(t *testing.T) {
	s := New()
	b := s.NewBarrier(1)
	s.Spawn("solo", func(p *Proc) {
		b.Await(p)
		b.Await(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Cycles() != 2 {
		t.Errorf("cycles = %d", b.Cycles())
	}
}

func TestBarrierValidation(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.NewBarrier(0)
}
