// Package hostcache implements MLP-Offload's cache-friendly
// update-ordering policy, the host-memory subgroup cache it plays against
// (LRU, in lru.go) and the pool of host staging buffers (BufferPool).
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
