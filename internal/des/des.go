// Package des is a deterministic discrete-event simulation kernel used to
// run the MLP-Offload and DeepSpeed-ZeRO-3 offloading pipelines at paper
// scale (40B-280B parameter models, terabytes of optimizer state) where the
// real engine cannot allocate the data.
//
// Simulated processes are goroutines scheduled cooperatively with a baton:
// exactly one goroutine (either the scheduler or one process) runs at any
// moment, so simulation state needs no locking and runs are bit-for-bit
// reproducible. Time is a float64 in seconds.
//
// The kernel provides:
//   - Proc: a simulated process with Sleep/Now,
//   - Mutex: a FIFO exclusive resource (models the paper's node-level
//     process-exclusive tier access),
//   - Event and Barrier: completion signals and iteration-boundary
//     synchronization,
//   - Link: a processor-sharing bandwidth resource with a contention
//     efficiency curve (models NVMe/PFS/PCIe under concurrent streams),
//   - Sched: a class-priority queue with a bounded pool of service
//     processes (models the aio engine object in front of each tier).
package des

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// Sim is a discrete-event simulation. Create with New, add processes with
// Spawn, then call Run.
type Sim struct {
	now     float64
	seq     int64
	events  eventHeap
	yield   chan struct{}
	live    int
	blocked map[*Proc]string // parked procs and why, for deadlock reports
}

// New creates an empty simulation at time 0.
func New() *Sim {
	return &Sim{
		yield:   make(chan struct{}),
		blocked: make(map[*Proc]string),
	}
}

// Now returns the current simulation time in seconds.
func (s *Sim) Now() float64 { return s.now }

// event is a scheduled callback. Canceled events stay in the heap and are
// skipped when popped (lazy deletion).
type event struct {
	t        float64
	seq      int64
	fn       func()
	canceled bool
	index    int
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// schedule registers fn to run at now+delay and returns a handle that can
// be canceled. delay must be >= 0.
func (s *Sim) schedule(delay float64, fn func()) *event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("des: negative or NaN delay %v", delay))
	}
	s.seq++
	e := &event{t: s.now + delay, seq: s.seq, fn: fn}
	heap.Push(&s.events, e)
	return e
}

func (s *Sim) cancel(e *event) {
	if e != nil {
		e.canceled = true
	}
}

// Proc is a simulated process. All Proc methods must be called from the
// process's own function (the goroutine started by Spawn).
type Proc struct {
	sim  *Sim
	name string
	wake chan struct{}
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulation time.
func (p *Proc) Now() float64 { return p.sim.now }

// Spawn adds a process to the simulation, starting at the current time.
// The process function runs in its own goroutine but only ever concurrently
// with nothing else (baton discipline).
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, wake: make(chan struct{})}
	s.live++
	go func() {
		<-p.wake // wait for first dispatch
		fn(p)
		s.live--
		delete(s.blocked, p)
		s.yield <- struct{}{}
	}()
	s.schedule(0, func() { s.runProc(p) })
	return p
}

// runProc hands the baton to p and waits until p parks or finishes.
// Must be called from scheduler context (inside an event fn).
func (s *Sim) runProc(p *Proc) {
	delete(s.blocked, p)
	p.wake <- struct{}{}
	<-s.yield
}

// park suspends the calling process until someone schedules a runProc for
// it. reason is recorded for deadlock diagnostics.
func (p *Proc) park(reason string) {
	p.sim.blocked[p] = reason
	p.sim.yield <- struct{}{}
	<-p.wake
}

// Sleep suspends the process for d simulated seconds. Negative durations
// are treated as zero.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		d = 0
	}
	s := p.sim
	s.schedule(d, func() { s.runProc(p) })
	p.park(fmt.Sprintf("sleep(%g)", d))
}

// Run executes events until none remain. It returns an error if live
// processes are still blocked (deadlock).
func (s *Sim) Run() error {
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(*event)
		if e.canceled {
			continue
		}
		if e.t < s.now {
			panic("des: time went backwards")
		}
		s.now = e.t
		e.fn()
	}
	if s.live > 0 {
		names := make([]string, 0, len(s.blocked))
		for p, why := range s.blocked {
			names = append(names, fmt.Sprintf("%s (%s)", p.name, why))
		}
		sort.Strings(names)
		return fmt.Errorf("des: deadlock at t=%.6f, %d blocked: %v", s.now, s.live, names)
	}
	return nil
}

// Mutex is a FIFO exclusive resource. It models the node-level
// process-exclusive tier access of MLP-Offload's concurrency control: a
// worker holding the mutex owns the full bandwidth of the tier; others
// queue in arrival order.
type Mutex struct {
	sim     *Sim
	holder  *Proc
	waiters []*Proc
	// stats
	waitTime float64
	acquires int64
}

// NewMutex creates a mutex owned by sim.
func (s *Sim) NewMutex() *Mutex { return &Mutex{sim: s} }

// Lock acquires the mutex, parking p until it is granted.
func (m *Mutex) Lock(p *Proc) {
	m.acquires++
	if m.holder == nil {
		m.holder = p
		return
	}
	t0 := m.sim.now
	m.waiters = append(m.waiters, p)
	p.park("mutex")
	m.waitTime += m.sim.now - t0
}

// Unlock releases the mutex. Granting to the next waiter happens via a
// zero-delay event so the releaser keeps running first (FIFO, deterministic).
func (m *Mutex) Unlock(p *Proc) {
	if m.holder != p {
		panic("des: unlock by non-holder " + p.name)
	}
	if len(m.waiters) == 0 {
		m.holder = nil
		return
	}
	next := m.waiters[0]
	m.waiters = m.waiters[1:]
	m.holder = next
	m.sim.schedule(0, func() { m.sim.runProc(next) })
}

// Holder returns the current holder (nil when free). Exposed for tests.
func (m *Mutex) Holder() *Proc { return m.holder }

// TotalWait returns the accumulated simulated time processes spent queued.
func (m *Mutex) TotalWait() float64 { return m.waitTime }

// Acquires returns the number of Lock calls.
func (m *Mutex) Acquires() int64 { return m.acquires }
