package des

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// spawnAt starts fn as a process that begins delay seconds from now.
func spawnAt(s *Sim, delay float64, name string, fn func(p *Proc)) {
	s.Spawn(name, func(p *Proc) {
		p.Sleep(delay)
		fn(p)
	})
}

func TestSleepAdvancesClock(t *testing.T) {
	s := New()
	var end float64
	s.Spawn("p", func(p *Proc) {
		p.Sleep(1.5)
		p.Sleep(2.5)
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(end, 4.0, 1e-12) {
		t.Errorf("end time = %v, want 4.0", end)
	}
}

func TestSpawnAtAndInterleaving(t *testing.T) {
	s := New()
	var order []string
	log := func(tag string, p *Proc) {
		order = append(order, fmt.Sprintf("%s@%.1f", tag, p.Now()))
	}
	s.Spawn("a", func(p *Proc) {
		log("a0", p)
		p.Sleep(2)
		log("a2", p)
	})
	spawnAt(s, 1, "b", func(p *Proc) {
		log("b1", p)
		p.Sleep(2)
		log("b3", p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a0@0.0 b1@1.0 a2@2.0 b3@3.0"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("order = %q, want %q", got, want)
	}
}

func TestDeterminismSameSeedSameTrace(t *testing.T) {
	run := func() []float64 {
		s := New()
		var trace []float64
		for i := 0; i < 5; i++ {
			i := i
			s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.Sleep(float64(i+1) * 0.1)
					trace = append(trace, p.Now())
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestMutexExclusionAndFIFO(t *testing.T) {
	s := New()
	m := s.NewMutex()
	var order []string
	for i := 0; i < 3; i++ {
		i := i
		spawnAt(s, float64(i)*0.1, fmt.Sprintf("w%d", i), func(p *Proc) {
			m.Lock(p)
			order = append(order, fmt.Sprintf("%s@%.2f", p.Name(), p.Now()))
			p.Sleep(1)
			m.Unlock(p)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "w0@0.00 w1@1.00 w2@2.00"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("order = %q, want %q", got, want)
	}
	if m.TotalWait() <= 0 {
		t.Error("expected queued wait time")
	}
}

func TestUnlockByNonHolderPanics(t *testing.T) {
	s := New()
	m := s.NewMutex()
	s.Spawn("a", func(p *Proc) { m.Lock(p) })
	s.Spawn("b", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		m.Unlock(p)
	})
	_ = s.Run()
}

func TestDeadlockDetection(t *testing.T) {
	s := New()
	m1, m2 := s.NewMutex(), s.NewMutex()
	s.Spawn("a", func(p *Proc) {
		m1.Lock(p)
		p.Sleep(1)
		m2.Lock(p)
	})
	s.Spawn("b", func(p *Proc) {
		m2.Lock(p)
		p.Sleep(1)
		m1.Lock(p)
	})
	err := s.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("error %q should mention deadlock", err)
	}
}

func TestLinkSingleTransferAtPeak(t *testing.T) {
	s := New()
	l := s.NewLink("nvme", 100, nil) // 100 B/s
	var dur float64
	s.Spawn("p", func(p *Proc) {
		dur = l.Transfer(p, 250)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(dur, 2.5, 1e-9) {
		t.Errorf("duration = %v, want 2.5", dur)
	}
	if !almostEqual(l.BytesMoved(), 250, 1e-9) {
		t.Errorf("bytes = %v", l.BytesMoved())
	}
	if !almostEqual(l.BusyTime(), 2.5, 1e-9) {
		t.Errorf("busy = %v", l.BusyTime())
	}
}

func TestLinkFairSharing(t *testing.T) {
	// Two equal transfers started together on an ideal link: each sees
	// half bandwidth, both finish at the same time = 2x single duration.
	s := New()
	l := s.NewLink("x", 100, nil)
	var d1, d2 float64
	s.Spawn("a", func(p *Proc) { d1 = l.Transfer(p, 100) })
	s.Spawn("b", func(p *Proc) { d2 = l.Transfer(p, 100) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d1, 2.0, 1e-9) || !almostEqual(d2, 2.0, 1e-9) {
		t.Errorf("durations = %v, %v, want 2.0 each", d1, d2)
	}
}

func TestLinkLateArrivalSharing(t *testing.T) {
	// a starts a 100B transfer at t=0 (alone: rate 100). b arrives at
	// t=0.5 with 100B. From 0.5 both share 50 B/s. a has 50B left ->
	// finishes at 1.5. Then b alone, 50B left at 100 B/s -> t=2.0.
	s := New()
	l := s.NewLink("x", 100, nil)
	var aEnd, bEnd float64
	s.Spawn("a", func(p *Proc) {
		l.Transfer(p, 100)
		aEnd = p.Now()
	})
	spawnAt(s, 0.5, "b", func(p *Proc) {
		l.Transfer(p, 100)
		bEnd = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(aEnd, 1.5, 1e-9) {
		t.Errorf("a end = %v, want 1.5", aEnd)
	}
	if !almostEqual(bEnd, 2.0, 1e-9) {
		t.Errorf("b end = %v, want 2.0", bEnd)
	}
}

func TestLinkInterferenceCurve(t *testing.T) {
	// With alpha=0.25 and 2 streams, aggregate = 100*1/1.25 = 80, each
	// stream gets 40 B/s. Two 80B transfers -> 2s each.
	s := New()
	l := s.NewLink("x", 100, CappedInterference(0.25, 2))
	var d1, d2 float64
	s.Spawn("a", func(p *Proc) { d1 = l.Transfer(p, 80) })
	s.Spawn("b", func(p *Proc) { d2 = l.Transfer(p, 80) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d1, 2.0, 1e-9) || !almostEqual(d2, 2.0, 1e-9) {
		t.Errorf("durations = %v, %v, want 2.0", d1, d2)
	}
}

func TestLinkSetPeakMidTransfer(t *testing.T) {
	// 200B at 100 B/s; at t=1 the link drops to 50 B/s. 100B remain ->
	// 2 more seconds -> finish at t=3.
	s := New()
	l := s.NewLink("pfs", 100, nil)
	var end float64
	s.Spawn("a", func(p *Proc) {
		l.Transfer(p, 200)
		end = p.Now()
	})
	spawnAt(s, 1, "ctl", func(p *Proc) {
		l.SetPeak(50)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(end, 3.0, 1e-9) {
		t.Errorf("end = %v, want 3.0", end)
	}
}

func TestLinkConservation(t *testing.T) {
	// Property: total bytes moved equals sum of requests, and busy time is
	// at least totalBytes/peak (work conservation bound).
	f := func(sizes [6]uint16, stagger uint8) bool {
		s := New()
		l := s.NewLink("x", 1000, nil)
		total := 0.0
		for i, raw := range sizes {
			size := float64(raw%5000) + 1
			total += size
			delay := float64(i) * float64(stagger%10) * 0.01
			spawnAt(s, delay, fmt.Sprintf("p%d", i), func(p *Proc) {
				l.Transfer(p, size)
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		if !almostEqual(l.BytesMoved(), total, 1e-6) {
			return false
		}
		minBusy := total / 1000
		return l.BusyTime() >= minBusy-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLinkExclusiveViaMutexFasterPerOp(t *testing.T) {
	// The core concurrency-control claim: with interference, serializing
	// access via a mutex completes the same total work no slower (and each
	// op at full bandwidth), while uncoordinated sharing pays the
	// efficiency penalty.
	run := func(exclusive bool) float64 {
		s := New()
		l := s.NewLink("nvme", 100, CappedInterference(0.5, 4))
		m := s.NewMutex()
		for i := 0; i < 4; i++ {
			s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				if exclusive {
					m.Lock(p)
					l.Transfer(p, 100)
					m.Unlock(p)
				} else {
					l.Transfer(p, 100)
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Now()
	}
	shared := run(false)
	exclusive := run(true)
	if exclusive >= shared {
		t.Errorf("exclusive (%v) should beat contended shared (%v)", exclusive, shared)
	}
	if !almostEqual(exclusive, 4.0, 1e-9) {
		t.Errorf("exclusive total = %v, want 4.0 (4 serialized 1s ops)", exclusive)
	}
	// Shared: 4 streams, eff(4)=1/(1+1.5)=0.4 -> aggregate 40 B/s for
	// 400 B -> 10 s.
	if !almostEqual(shared, 10.0, 1e-9) {
		t.Errorf("shared total = %v, want 10.0", shared)
	}
}

func TestZeroByteTransfer(t *testing.T) {
	s := New()
	l := s.NewLink("x", 100, nil)
	var d float64 = -1
	s.Spawn("p", func(p *Proc) { d = l.Transfer(p, 0) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("zero transfer duration = %v", d)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative delay")
		}
	}()
	s.schedule(-1, func() {})
}

func BenchmarkSimThroughput(b *testing.B) {
	// Measures scheduler overhead: many procs ping-ponging sleeps.
	for i := 0; i < b.N; i++ {
		s := New()
		l := s.NewLink("x", 1e9, CappedInterference(0.1, 8))
		for w := 0; w < 8; w++ {
			s.Spawn(fmt.Sprintf("w%d", w), func(p *Proc) {
				for k := 0; k < 50; k++ {
					l.Transfer(p, 1e6)
					p.Sleep(0.001)
				}
			})
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLinkAccessors(t *testing.T) {
	s := New()
	l := s.NewLink("nvme", 123, nil)
	if l.Name() != "nvme" || l.Peak() != 123 {
		t.Errorf("accessors: %q %v", l.Name(), l.Peak())
	}
	if l.Active() != 0 || l.Transfers() != 0 {
		t.Error("fresh link not idle")
	}
	s.Spawn("p", func(p *Proc) { l.Transfer(p, 123) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if l.Transfers() != 1 {
		t.Errorf("transfers = %d", l.Transfers())
	}
}

func TestLinkSetPeakValidation(t *testing.T) {
	s := New()
	l := s.NewLink("x", 10, nil)
	defer func() {
		if recover() == nil {
			t.Error("SetPeak(0) should panic")
		}
	}()
	l.SetPeak(0)
}

func TestCappedInterference(t *testing.T) {
	eff := CappedInterference(0.1, 4)
	if eff(1) != 1 {
		t.Errorf("eff(1) = %v", eff(1))
	}
	if eff(4) != eff(16) {
		t.Errorf("cap not applied: eff(4)=%v eff(16)=%v", eff(4), eff(16))
	}
	if eff(2) >= eff(1) || eff(4) >= eff(2) {
		t.Error("not monotone below cap")
	}
	// Degenerate cap.
	if CappedInterference(0.5, 0)(10) != 1 {
		t.Error("cap<1 should clamp to a single process (eff 1)")
	}
}

func TestMutexHolderAccessor(t *testing.T) {
	s := New()
	m := s.NewMutex()
	s.Spawn("a", func(p *Proc) {
		m.Lock(p)
		if m.Holder() != p {
			t.Error("holder mismatch")
		}
		m.Unlock(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Holder() != nil {
		t.Error("holder not cleared")
	}
	if m.Acquires() != 1 {
		t.Errorf("acquires = %d", m.Acquires())
	}
}
