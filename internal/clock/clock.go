// Package clock is the engine-wide time source. Every timing-sensitive
// subsystem — ratelimit pacing, aio op stamps and aging, tierlock wait
// accounting, fault-injection latency, the engine's phase stopwatches —
// takes a Clock instead of calling the time package directly, with the
// wall clock as the default. Tests and iobench scenarios substitute a
// VirtualClock: time then advances only when something sleeps (or a test
// calls Advance), which turns "sleep 2s of emulated transfer" into a
// deterministic, race-free, instant assertion instead of a real wait.
//
// Two virtual modes cover the two kinds of deterministic tests:
//
//   - NewVirtual returns a manually driven clock: goroutines calling
//     Sleep/After park as waiters and resume only when the test calls
//     Advance/AdvanceToNext (or runs Drive in the background). BlockUntil
//     lets the test wait until a known number of goroutines are parked
//     before advancing, which makes multi-goroutine schedules exact.
//     Driven this way, concurrent sleepers overlap in virtual time — the
//     mode iobench -virtual uses.
//
//   - NewVirtualAuto returns a self-advancing clock: Sleep(d) advances
//     shared time by d and returns immediately (waking any waiters that
//     became due, oldest deadline first). A whole engine stack running on
//     one auto clock executes its emulated transfers in microseconds of
//     real time while virtual timestamps still accumulate the modeled
//     durations. Concurrent sleepers each advance the shared clock, so
//     their sleeps add up instead of overlapping.
package clock

import (
	"bytes"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Clock abstracts the time package. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns the current (wall or virtual) time.
	Now() time.Time
	// Sleep blocks for d (d <= 0 returns immediately).
	Sleep(d time.Duration)
	// After returns a channel that receives the clock's time once d has
	// elapsed. The channel is buffered; the value is sent, never dropped.
	After(d time.Duration) <-chan time.Time
	// Since returns the time elapsed since t.
	Since(t time.Time) time.Duration
}

// WallClock is the real time.Now/time.Sleep clock. The zero value is
// usable; all instances are equivalent.
type WallClock struct{}

// Now implements Clock.
func (WallClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (WallClock) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// After implements Clock.
func (WallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Since implements Clock.
func (WallClock) Since(t time.Time) time.Duration { return time.Since(t) }

// Wall returns the process-wide wall clock.
func Wall() Clock { return WallClock{} }

// Or returns c, or the wall clock when c is nil — the "nil means real
// time" default every config knob uses.
func Or(c Clock) Clock {
	if c == nil {
		return WallClock{}
	}
	return c
}

// IsWall reports whether c is the real-time clock (After/Sleep then use
// genuine timers; callers racing timers against context cancellation need
// to know, see ratelimit.sleepCtx).
func IsWall(c Clock) bool {
	_, ok := c.(WallClock)
	return ok
}

// waiter is one parked Sleep/After caller.
type waiter struct {
	deadline time.Time
	seq      uint64 // FIFO tiebreak for equal deadlines
	ch       chan time.Time
}

// VirtualClock is a manually advanced Clock for deterministic timing
// tests. Time moves only via Advance/AdvanceToNext (manual mode) or via
// Sleep itself (auto mode). Waiters are woken in deadline order
// (submission order for equal deadlines), and every wakeup happens-before
// the Advance call that caused it returns, so assertions made after
// Advance observe a settled clock.
type VirtualClock struct {
	mu      sync.Mutex
	cond    *sync.Cond // broadcast on waiter registration (BlockUntil)
	now     time.Time
	seq     uint64
	waiters []*waiter
	auto    bool
}

// virtualEpoch is the deterministic start time of every virtual clock —
// an arbitrary fixed instant, so timestamps in test failures are stable
// across runs.
var virtualEpoch = time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)

// NewVirtual returns a manually driven virtual clock starting at a fixed
// epoch.
func NewVirtual() *VirtualClock {
	v := &VirtualClock{now: virtualEpoch}
	v.cond = sync.NewCond(&v.mu)
	return v
}

// NewVirtualAuto returns a self-advancing virtual clock: Sleep(d)
// advances shared time by d immediately instead of parking. See the
// package comment for when each mode fits.
func NewVirtualAuto() *VirtualClock {
	v := NewVirtual()
	v.auto = true
	return v
}

// Now implements Clock.
func (v *VirtualClock) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since implements Clock.
func (v *VirtualClock) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Sleep implements Clock. In manual mode it parks until Advance moves the
// clock past the deadline; in auto mode it advances the clock itself and
// returns. Zero and negative durations return immediately in both modes.
func (v *VirtualClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	if v.auto {
		v.advanceLocked(v.now.Add(d))
		v.mu.Unlock()
		return
	}
	w := v.registerLocked(d)
	v.mu.Unlock()
	<-w.ch
}

// After implements Clock. The returned channel receives the virtual time
// at which the deadline was crossed. Non-positive durations fire
// immediately with the current time.
func (v *VirtualClock) After(d time.Duration) <-chan time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	if d <= 0 {
		ch := make(chan time.Time, 1)
		ch <- v.now
		return ch
	}
	return v.registerLocked(d).ch
}

// registerLocked parks a new waiter d from now. Caller holds mu and
// guarantees d > 0.
func (v *VirtualClock) registerLocked(d time.Duration) *waiter {
	w := &waiter{deadline: v.now.Add(d), seq: v.seq, ch: make(chan time.Time, 1)}
	v.seq++
	v.waiters = append(v.waiters, w)
	v.cond.Broadcast()
	return w
}

// Advance moves the clock forward by d, waking every waiter whose
// deadline is reached, in deadline order (FIFO for ties). Each waiter is
// woken at exactly its deadline: a woken Sleep that immediately re-sleeps
// re-registers against the intermediate time, not the final target — but
// only if it runs before Advance finishes, which is not guaranteed;
// drive chunked sleeps with AdvanceToNext (or Drive) when that matters.
// Negative d panics.
func (v *VirtualClock) Advance(d time.Duration) {
	if d < 0 {
		panic("clock: negative Advance")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.advanceLocked(v.now.Add(d))
}

// advanceLocked moves the clock to target, firing due waiters in
// (deadline, seq) order. Caller holds mu.
func (v *VirtualClock) advanceLocked(target time.Time) {
	for {
		idx := -1
		for i, w := range v.waiters {
			if w.deadline.After(target) {
				continue
			}
			if idx == -1 || w.deadline.Before(v.waiters[idx].deadline) ||
				(w.deadline.Equal(v.waiters[idx].deadline) && w.seq < v.waiters[idx].seq) {
				idx = i
			}
		}
		if idx == -1 {
			break
		}
		w := v.waiters[idx]
		v.waiters = append(v.waiters[:idx], v.waiters[idx+1:]...)
		if w.deadline.After(v.now) {
			v.now = w.deadline
		}
		w.ch <- v.now // buffered: the waiter may collect it at leisure
	}
	if target.After(v.now) {
		v.now = target
	}
}

// AdvanceToNext advances exactly to the earliest pending deadline and
// wakes the waiters due at it. It reports the distance advanced and
// whether any waiter existed.
func (v *VirtualClock) AdvanceToNext() (time.Duration, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.waiters) == 0 {
		return 0, false
	}
	next := v.waiters[0].deadline
	for _, w := range v.waiters[1:] {
		if w.deadline.Before(next) {
			next = w.deadline
		}
	}
	d := next.Sub(v.now)
	v.advanceLocked(next)
	if d < 0 {
		d = 0
	}
	return d, true
}

// Sleepers returns the number of currently parked waiters.
func (v *VirtualClock) Sleepers() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.waiters)
}

// Deadlines returns the pending waiter deadlines in ascending order — an
// observability hook for tests asserting on the parked schedule.
func (v *VirtualClock) Deadlines() []time.Time {
	v.mu.Lock()
	out := make([]time.Time, len(v.waiters))
	for i, w := range v.waiters {
		out[i] = w.deadline
	}
	v.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// BlockUntil returns once at least n waiters are parked. Tests use it to
// know every goroutine of a schedule is asleep before Advancing — the
// waiter-aware handshake that makes concurrent schedules exact.
func (v *VirtualClock) BlockUntil(n int) {
	v.mu.Lock()
	for len(v.waiters) < n {
		v.cond.Wait()
	}
	v.mu.Unlock()
}

// Drive advances to each next deadline until stop is closed — a
// background driver for code whose sleeps are chunked or data-dependent
// (e.g. a rate limiter splitting a transfer into burst-size
// reservations). It advances only once every other goroutine of the
// process is blocked: a goroutine a wakeup made runnable gets to act —
// submit its next op, register its next sleep — at the virtual instant
// it woke, instead of the clock running ahead to some later deadline
// while it waits for a CPU. Virtual timings are then independent of real
// scheduling (the race detector, a loaded machine). While anything runs
// Drive polls in short real sleeps.
func (v *VirtualClock) Drive(stop <-chan struct{}) {
	var buf []byte
	for {
		select {
		case <-stop:
			return
		default:
		}
		if v.Sleepers() == 0 || !othersBlocked(&buf) {
			time.Sleep(20 * time.Microsecond)
			continue
		}
		v.AdvanceToNext()
	}
}

// othersBlocked reports whether every goroutine but the caller is parked
// (on a channel, lock, select, real sleep, system call, …) rather than
// running or runnable, reading the states off a runtime.Stack dump. A
// system call counts as parked: some never return (os/signal's receive
// loop). buf is reused across calls and grows as needed.
func othersBlocked(buf *[]byte) bool {
	if len(*buf) == 0 {
		*buf = make([]byte, 64<<10)
	}
	n := runtime.Stack(*buf, true)
	for n == len(*buf) {
		*buf = make([]byte, 2*len(*buf))
		n = runtime.Stack(*buf, true)
	}
	// Records are "goroutine N [state, …]:\n<frames>", blank-line
	// separated; the caller's own comes first.
	recs := bytes.Split((*buf)[:n], []byte("\n\n"))
	for _, rec := range recs[1:] {
		i := bytes.IndexByte(rec, '[')
		j := bytes.IndexAny(rec, ",]")
		if i < 0 || j < i {
			continue
		}
		switch string(rec[i+1 : j]) {
		case "running", "runnable", "preempted", "GC assist wait":
			return false
		}
	}
	return true
}
