package clock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWallBasics(t *testing.T) {
	c := Wall()
	if !IsWall(c) {
		t.Fatal("Wall() not recognized by IsWall")
	}
	if IsWall(NewVirtual()) {
		t.Fatal("virtual clock recognized as wall")
	}
	t0 := c.Now()
	c.Sleep(-time.Second) // must not block
	c.Sleep(0)
	if c.Since(t0) < 0 {
		t.Fatal("negative Since")
	}
	select {
	case <-c.After(0):
	case <-time.After(time.Second):
		t.Fatal("wall After(0) did not fire")
	}
}

func TestOrDefaultsToWall(t *testing.T) {
	if !IsWall(Or(nil)) {
		t.Fatal("Or(nil) is not the wall clock")
	}
	v := NewVirtual()
	if Or(v) != Clock(v) {
		t.Fatal("Or(v) did not return v")
	}
}

func TestVirtualAdvanceWakesInDeadlineOrder(t *testing.T) {
	v := NewVirtual()
	start := v.Now()

	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	durations := []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
	woken := make([]time.Time, len(durations))
	for i, d := range durations {
		wg.Add(1)
		go func(i int, d time.Duration) {
			defer wg.Done()
			v.Sleep(d)
			mu.Lock()
			order = append(order, i)
			woken[i] = v.Now()
			mu.Unlock()
		}(i, d)
	}
	v.BlockUntil(3)
	if n := v.Sleepers(); n != 3 {
		t.Fatalf("Sleepers = %d, want 3", n)
	}
	dls := v.Deadlines()
	if len(dls) != 3 || !dls[0].Equal(start.Add(10*time.Millisecond)) {
		t.Fatalf("Deadlines = %v", dls)
	}
	v.Advance(50 * time.Millisecond)
	wg.Wait()

	if got := v.Since(start); got != 50*time.Millisecond {
		t.Fatalf("advanced %v, want 50ms", got)
	}
	// Wakeup *processing* order is scheduler-dependent, but each waiter
	// must observe virtual time at or past its own deadline and the
	// clock fires them in deadline order — waiter 1 (10ms) can never see
	// a time before its deadline, and none can see less than it slept.
	for i, d := range durations {
		if woken[i].Sub(start) < d {
			t.Errorf("waiter %d woke at +%v, slept %v", i, woken[i].Sub(start), d)
		}
	}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestVirtualAfterFiresAtDeadline(t *testing.T) {
	v := NewVirtual()
	start := v.Now()
	ch1 := v.After(10 * time.Millisecond)
	ch2 := v.After(20 * time.Millisecond)

	v.Advance(10 * time.Millisecond)
	select {
	case ts := <-ch1:
		if !ts.Equal(start.Add(10 * time.Millisecond)) {
			t.Fatalf("ch1 fired at %v", ts)
		}
	default:
		t.Fatal("ch1 did not fire at its deadline")
	}
	select {
	case <-ch2:
		t.Fatal("ch2 fired early")
	default:
	}
	v.Advance(10 * time.Millisecond)
	select {
	case ts := <-ch2:
		if !ts.Equal(start.Add(20 * time.Millisecond)) {
			t.Fatalf("ch2 fired at %v", ts)
		}
	default:
		t.Fatal("ch2 did not fire")
	}
	// Non-positive After fires immediately with the current time.
	select {
	case ts := <-v.After(0):
		if !ts.Equal(v.Now()) {
			t.Fatalf("After(0) fired at %v, now %v", ts, v.Now())
		}
	default:
		t.Fatal("After(0) did not fire immediately")
	}
}

func TestVirtualZeroAndNegativeSleep(t *testing.T) {
	v := NewVirtual()
	done := make(chan struct{})
	go func() {
		v.Sleep(0)
		v.Sleep(-time.Hour)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("zero/negative Sleep blocked on a virtual clock")
	}
	if v.Sleepers() != 0 {
		t.Fatal("zero-duration sleeps registered waiters")
	}
}

func TestVirtualAdvanceToNext(t *testing.T) {
	v := NewVirtual()
	if d, ok := v.AdvanceToNext(); ok || d != 0 {
		t.Fatalf("AdvanceToNext with no waiters = (%v, %v)", d, ok)
	}
	var wg sync.WaitGroup
	var first, second atomic.Bool
	wg.Add(2)
	go func() { defer wg.Done(); v.Sleep(5 * time.Millisecond); first.Store(true) }()
	go func() { defer wg.Done(); v.Sleep(9 * time.Millisecond); second.Store(true) }()
	v.BlockUntil(2)
	d, ok := v.AdvanceToNext()
	if !ok || d != 5*time.Millisecond {
		t.Fatalf("first AdvanceToNext = (%v, %v), want 5ms", d, ok)
	}
	// The 9ms waiter must still be parked.
	if v.Sleepers() != 1 {
		t.Fatalf("Sleepers after first step = %d", v.Sleepers())
	}
	if second.Load() {
		t.Fatal("9ms waiter woke at 5ms")
	}
	d, ok = v.AdvanceToNext()
	if !ok || d != 4*time.Millisecond {
		t.Fatalf("second AdvanceToNext = (%v, %v), want 4ms", d, ok)
	}
	wg.Wait()
	if !first.Load() || !second.Load() {
		t.Fatal("waiters not woken")
	}
}

func TestVirtualConcurrentAdvanceVsSleepers(t *testing.T) {
	// Hammer Advance from several goroutines while many sleepers come and
	// go; every sleeper must wake exactly once, no wakeup may be lost,
	// and the final time must be the sum of all advances. Run with -race.
	v := NewVirtual()
	start := v.Now()
	const sleepers = 32
	const advancers = 4
	const step = 10 * time.Millisecond

	var wg sync.WaitGroup
	var woken atomic.Int64
	for i := 0; i < sleepers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v.Sleep(time.Duration(i%7+1) * time.Millisecond)
			woken.Add(1)
		}(i)
	}
	v.BlockUntil(sleepers)
	var awg sync.WaitGroup
	for a := 0; a < advancers; a++ {
		awg.Add(1)
		go func() {
			defer awg.Done()
			v.Advance(step)
		}()
	}
	awg.Wait()
	wg.Wait()
	if woken.Load() != sleepers {
		t.Fatalf("woken = %d, want %d", woken.Load(), sleepers)
	}
	if got := v.Since(start); got != advancers*step {
		t.Fatalf("final time +%v, want %v", got, time.Duration(advancers)*step)
	}
	if v.Sleepers() != 0 {
		t.Fatalf("leftover sleepers: %d", v.Sleepers())
	}
}

func TestVirtualAutoSleepAdvances(t *testing.T) {
	v := NewVirtualAuto()
	start := v.Now()
	v.Sleep(3 * time.Second)
	v.Sleep(2 * time.Second)
	if got := v.Since(start); got != 5*time.Second {
		t.Fatalf("auto clock at +%v, want 5s", got)
	}
	// Sequential sleeps from concurrent goroutines accumulate too.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); v.Sleep(time.Second) }()
	}
	wg.Wait()
	if got := v.Since(start); got != 9*time.Second {
		t.Fatalf("auto clock at +%v, want 9s", got)
	}
}

func TestVirtualAutoSleepWakesManualWaiters(t *testing.T) {
	// An After registered on an auto clock is fired by someone's Sleep.
	v := NewVirtualAuto()
	ch := v.After(4 * time.Second)
	select {
	case <-ch:
		t.Fatal("After fired before any time passed")
	default:
	}
	v.Sleep(5 * time.Second)
	select {
	case <-ch:
	default:
		t.Fatal("Sleep did not fire the due After waiter")
	}
}

func TestVirtualDrive(t *testing.T) {
	// Drive lets chunked data-dependent sleeps (sleep, recompute, sleep
	// again) complete without the test predicting each deadline.
	v := NewVirtual()
	start := v.Now()
	stop := make(chan struct{})
	go v.Drive(stop)
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ {
			v.Sleep(7 * time.Millisecond)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drive did not complete chunked sleeps")
	}
	close(stop)
	if got := v.Since(start); got != 70*time.Millisecond {
		t.Fatalf("chunked sleeps advanced %v, want 70ms", got)
	}
}

// TestVirtualDriveWaitsForRunnable: a goroutine that wakes and keeps
// working before its next sleep registers that sleep at the instant it
// woke, however long the work takes in real time — Drive does not run
// ahead to another goroutine's later deadline meanwhile.
func TestVirtualDriveWaitsForRunnable(t *testing.T) {
	v := NewVirtual()
	start := v.Now()
	stop := make(chan struct{})
	defer close(stop)
	go v.Drive(stop)
	go v.Sleep(time.Second) // a far deadline Drive could jump to
	woke := make(chan time.Time)
	go func() {
		v.Sleep(10 * time.Millisecond)
		for i := 0; i < 20000; i++ {
			runtime.Gosched() // runnable throughout, never parked
		}
		v.Sleep(time.Millisecond)
		woke <- v.Now()
	}()
	select {
	case at := <-woke:
		if got := at.Sub(start); got != 11*time.Millisecond {
			t.Fatalf("second sleep woke at %v, want exactly 11ms", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drive did not complete the sleeps")
	}
}

func TestVirtualAdvancePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	NewVirtual().Advance(-time.Second)
}

func TestVirtualTimerTieOrdering(t *testing.T) {
	// Equal deadlines fire in registration order (seq FIFO): both After
	// channels carry the same timestamp, and both are delivered by one
	// Advance.
	v := NewVirtual()
	ch1 := v.After(time.Millisecond)
	ch2 := v.After(time.Millisecond)
	v.Advance(time.Millisecond)
	t1, t2 := <-ch1, <-ch2
	if !t1.Equal(t2) || !t1.Equal(v.Now()) {
		t.Fatalf("tie fire times %v / %v, now %v", t1, t2, v.Now())
	}
}
