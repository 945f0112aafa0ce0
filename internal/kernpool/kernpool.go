// Package kernpool provides the engine-wide shared kernel worker pool
// that fans one large numeric kernel (the Adam step, the fp16 bulk
// conversions) across idle cores.
//
// The pipeline already overlaps subgroups against each other
// (UpdateWorkers), but a single huge subgroup still serializes its whole
// kernel on one goroutine. The pool closes that gap: every caller splits
// its index range into fixed-size chunks and mines them together with
// the pool's workers, so intra-subgroup parallelism appears exactly when
// cores are otherwise idle — and degrades to the caller running alone
// when they are not.
//
// Determinism contract: chunk boundaries depend only on the range length
// (fixed ChunkElems), never on the worker count or on scheduling, and
// every chunk is processed by exactly one goroutine. A kernel whose
// elements are independent (Adam, the conversion codecs) therefore
// produces bit-identical results at any pool size — the property the
// engine's bit-identical-parameters oracles pin.
//
// One pool is shared by all of an engine's update workers: kernel
// parallelism and pipeline parallelism multiply demand, not goroutines.
package kernpool

import (
	"sync"
	"sync/atomic"
)

// ChunkElems is the fixed work-chunk size in elements. Boundaries are
// multiples of it regardless of worker count (the determinism contract).
// The fused FP16 Adam step, the heaviest kernel, runs at 3.5–7 ns/element
// serially (2 shared vCPUs, x86-64, depending on load), so a chunk is
// 100–250 µs of work, coarse enough that the ~0.1 µs dispatch stays
// negligible.
const ChunkElems = 32 << 10

// Pool is a fixed set of kernel workers. The zero of *Pool (nil) is a
// valid serial pool: Run executes inline. Pools with workers <= 1 spawn
// no goroutines at all.
type Pool struct {
	workers int
	runs    chan *run
	closed  atomic.Bool
	wg      sync.WaitGroup
	once    sync.Once
}

// run is one Run invocation's shared descriptor: workers and the caller
// mine chunks from next until the range is exhausted. Descriptors are
// recycled through freeRuns, so a pooled Run allocates nothing: refs
// counts the caller plus every helper the descriptor was offered to, and
// the last of them to finish with it recycles it. A helper can dequeue
// a descriptor after its caller has mined every chunk and returned; it
// then finds no chunk left, but holds its reference until it has looked.
type run struct {
	n    int
	fn   func(lo, hi int)
	next atomic.Int64
	refs atomic.Int32
	wg   sync.WaitGroup
}

var freeRuns = sync.Pool{New: func() any { return new(run) }}

// release drops one reference; the last one recycles the descriptor.
func (r *run) release() {
	if r.refs.Add(-1) == 0 {
		r.fn = nil
		freeRuns.Put(r)
	}
}

// work mines chunks until none remain. Safe for any number of
// concurrent miners; each chunk is claimed exactly once.
func (r *run) work() {
	chunks := (r.n + ChunkElems - 1) / ChunkElems
	for {
		c := int(r.next.Add(1) - 1)
		if c >= chunks {
			return
		}
		lo := c * ChunkElems
		hi := lo + ChunkElems
		if hi > r.n {
			hi = r.n
		}
		r.fn(lo, hi)
		r.wg.Done()
	}
}

// New creates a pool with the given number of helper workers. workers
// counts total kernel parallelism including the calling goroutine, so a
// pool of w spawns w-1 helpers; workers <= 1 yields a serial pool.
func New(workers int) *Pool {
	p := &Pool{workers: workers}
	if workers <= 1 {
		return p
	}
	p.runs = make(chan *run, workers-1)
	for i := 0; i < workers-1; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Workers returns the pool's configured parallelism (>= 1); nil pools
// report 1.
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for r := range p.runs {
		r.work()
		r.release()
	}
}

// Run executes fn over [0, n) split into ChunkElems-sized chunks. The
// calling goroutine always participates; pool workers join when idle
// (the offer is non-blocking, so a pool saturated by other callers
// simply leaves this caller mining alone — never a queue, never a
// deadlock). Run returns when every chunk has completed. Safe for
// concurrent use by multiple callers; nil and serial pools run inline.
func (p *Pool) Run(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := (n + ChunkElems - 1) / ChunkElems
	if p == nil || p.runs == nil || chunks < 2 || p.closed.Load() {
		// Serial path: same chunk sequence as the pooled path, so fn
		// observes identical (lo, hi) ranges at any worker count.
		for lo := 0; lo < n; lo += ChunkElems {
			hi := lo + ChunkElems
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
		return
	}
	r := freeRuns.Get().(*run)
	r.n, r.fn = n, fn
	r.next.Store(0)
	r.refs.Store(1)
	r.wg.Add(chunks)
	helpers := p.workers - 1
	if helpers > chunks-1 {
		helpers = chunks - 1
	}
offer:
	for i := 0; i < helpers; i++ {
		r.refs.Add(1)
		select {
		case p.runs <- r:
		default:
			r.refs.Add(-1)
			break offer // every worker is busy; mine alone
		}
	}
	r.work()
	r.wg.Wait()
	r.release()
}

// Close stops the workers. Idempotent. Run calls after Close execute
// serially inline; Close must not race in-flight Runs (the engine
// closes its pool only after the pipeline has drained).
func (p *Pool) Close() {
	if p == nil || p.runs == nil {
		return
	}
	p.once.Do(func() {
		p.closed.Store(true)
		close(p.runs)
		p.wg.Wait()
	})
}
