// Package hostcache implements the host-memory subgroup cache and the
// cache-friendly update-ordering policy of MLP-Offload.
//
// The key observation (paper §3.2): Adam updates are embarrassingly
// parallel across subgroups, so the processing order is free. Processing in
// ascending ID order leaves the highest-ID subgroups resident in host
// memory at the end of the update phase; the next update phase therefore
// processes in *descending* order to hit those cached subgroups first, and
// so on, alternating every iteration. The sequential baseline re-processes
// in ascending order every time and thrashes the cache.
package hostcache

import (
	"fmt"
	"sync"
)

// Order is a subgroup processing-order policy.
type Order int

const (
	// Sequential always processes subgroups 0..M-1 (the DeepSpeed ZeRO-3
	// baseline).
	Sequential Order = iota
	// Alternating reverses the order on every update phase (MLP-Offload's
	// "Enable Caching" optimization).
	Alternating
)

func (o Order) String() string {
	switch o {
	case Sequential:
		return "sequential"
	case Alternating:
		return "alternating"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// UpdateOrder returns the subgroup processing order for a given update
// phase (iter counts update phases, starting at 0).
func UpdateOrder(policy Order, m, iter int) []int {
	out := make([]int, m)
	if policy == Alternating && iter%2 == 1 {
		for i := range out {
			out[i] = m - 1 - i
		}
		return out
	}
	for i := range out {
		out[i] = i
	}
	return out
}

// ExpectedHits returns how many of the first subgroups in the order for
// phase iter are host-resident given that capacity subgroups remained
// cached at the end of phase iter-1 under the same policy. For the
// alternating policy the last `capacity` subgroups processed in phase
// iter-1 are exactly the first `capacity` processed in phase iter, so the
// hit count equals min(capacity, m). For the sequential policy the cached
// tail (highest IDs) is processed last while fetches for low IDs evict it
// — zero hits (thrashing), unless everything fits.
func ExpectedHits(policy Order, m, capacity int) int {
	if capacity >= m {
		return m
	}
	if policy == Alternating {
		return capacity
	}
	return 0
}

// Residency tracks which subgroups currently live in host memory, with a
// bounded number of slots. It implements the eviction the engine needs:
// when full, Insert evicts the resident subgroup that will be used furthest
// in the future according to the *next* processing order (Belady-style for
// the known alternating schedule), falling back to lowest-priority.
type Residency struct {
	mu       sync.Mutex
	capacity int
	resident map[int]struct{}
}

// NewResidency creates a tracker with the given slot capacity (>= 0).
func NewResidency(capacity int) *Residency {
	if capacity < 0 {
		panic("hostcache: negative capacity")
	}
	return &Residency{capacity: capacity, resident: make(map[int]struct{})}
}

// Capacity returns the slot capacity.
func (r *Residency) Capacity() int { return r.capacity }

// Len returns the number of resident subgroups.
func (r *Residency) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.resident)
}

// Contains reports whether subgroup sg is host-resident.
func (r *Residency) Contains(sg int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.resident[sg]
	return ok
}

// Insert marks sg resident. If the cache is full it evicts according to
// nextUse: the resident subgroup with the largest nextUse value is evicted
// (use -1 / missing to mean "never used again", which evicts first).
// It returns the evicted subgroup ID and true, or 0,false when no eviction
// happened. Inserting an already-resident subgroup is a no-op.
func (r *Residency) Insert(sg int, nextUse map[int]int) (evicted int, didEvict bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.resident[sg]; ok {
		return 0, false
	}
	if r.capacity == 0 {
		return 0, false // nothing can ever be resident
	}
	if len(r.resident) >= r.capacity {
		victim, ok := r.pickVictim(nextUse)
		if !ok {
			return 0, false
		}
		delete(r.resident, victim)
		r.resident[sg] = struct{}{}
		return victim, true
	}
	r.resident[sg] = struct{}{}
	return 0, false
}

// pickVictim chooses the resident subgroup used furthest in the future.
// Missing entries in nextUse mean "never again" and win immediately.
// Ties break toward the larger ID for determinism. Caller holds mu.
func (r *Residency) pickVictim(nextUse map[int]int) (int, bool) {
	best := -1
	bestUse := -2
	for sg := range r.resident {
		use, ok := nextUse[sg]
		if !ok {
			use = 1 << 30 // never used again
		}
		if use > bestUse || (use == bestUse && sg > best) {
			best, bestUse = sg, use
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// Remove explicitly drops sg from residency (e.g. after flushing it to a
// storage tier). Removing a non-resident subgroup is a no-op.
func (r *Residency) Remove(sg int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.resident, sg)
}

// Snapshot returns the resident set (unordered copy).
func (r *Residency) Snapshot() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, 0, len(r.resident))
	for sg := range r.resident {
		out = append(out, sg)
	}
	return out
}

// NextUseIndex builds the map subgroup->position for an upcoming
// processing order, for use as the Insert eviction oracle.
func NextUseIndex(order []int) map[int]int {
	m := make(map[int]int, len(order))
	for pos, sg := range order {
		m[sg] = pos
	}
	return m
}

// BufferPool is a fixed-size pool of equally sized byte buffers standing in
// for the pinned host staging buffers DeepNVMe pre-allocates for
// asynchronous I/O. Get blocks when the pool is exhausted, which is exactly
// the backpressure that limits in-flight prefetches ("host memory can hold
// a minimum of three subgroups: one flushing, one updating, one
// prefetching").
type BufferPool struct {
	bufSize int
	ch      chan []byte
	mu      sync.Mutex
	spare   int // buffers the pool may still create on demand
}

// NewBufferPool creates a pool with a blocking quota of n buffers of
// bufSize bytes each, allocating each buffer on first demand. The quota
// may cover a worst case (a host cache large enough to hold the whole
// shard, gradient staging a mode never uses) that a given run never
// reaches — the pool only ever materializes the buffers actually cycled
// through it.
func NewBufferPool(n, bufSize int) *BufferPool {
	if n <= 0 || bufSize <= 0 {
		panic("hostcache: pool dimensions must be positive")
	}
	return &BufferPool{bufSize: bufSize, ch: make(chan []byte, n), spare: n}
}

// Get blocks until a buffer is available (creating one while the quota
// is not yet materialized).
func (p *BufferPool) Get() []byte {
	if b := p.TryGet(); b != nil {
		return b
	}
	return <-p.ch
}

// TryGet returns a buffer or nil without blocking.
func (p *BufferPool) TryGet() []byte {
	select {
	case b := <-p.ch:
		return b
	default:
		return p.takeSpare()
	}
}

// takeSpare consumes one unit of the unmaterialized quota, returning a fresh
// buffer, or nil when the pool is fully materialized.
func (p *BufferPool) takeSpare() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.spare == 0 {
		return nil
	}
	p.spare--
	return make([]byte, p.bufSize)
}

// Put returns a buffer to the pool. Buffers of the wrong size panic —
// that is always a bug.
func (p *BufferPool) Put(b []byte) {
	if len(b) != p.bufSize {
		panic("hostcache: returning wrong-size buffer to pool")
	}
	// Counting the unmaterialized quota as available, a Put that would
	// take the pool past n is a double Put even before every buffer exists.
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ch)+p.spare == cap(p.ch) {
		panic("hostcache: pool overflow — double Put?")
	}
	p.ch <- b
}

// Free returns the number of currently available buffers (counting the
// not-yet-created ones).
func (p *BufferPool) Free() int {
	p.mu.Lock()
	s := p.spare
	p.mu.Unlock()
	return len(p.ch) + s
}

// BufSize returns the size of each pooled buffer.
func (p *BufferPool) BufSize() int { return p.bufSize }
