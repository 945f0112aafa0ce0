// Package bufpool is a process-wide, size-classed []byte pool for the
// cold-path staging buffers the system allocates per object: whole-object
// tier reads, in-memory tier objects, and the codec's encode outputs and
// decode scratch. These are multi-megabyte, short-lived, and allocated
// at object granularity, so per-call make() churns the garbage collector
// exactly when the engine is trying to keep the CPU on the update
// kernels.
//
// The contract is deliberately loose so call sites can adopt it
// incrementally:
//
//   - Get(n) returns a length-n slice (capacity may be larger — the next
//     power-of-two size class).
//   - Put(b) recycles b's backing array. It is always optional: a buffer
//     that is never Put is simply garbage, exactly as if it had been
//     make()d. Put must only be called by the buffer's unique owner,
//     after every reference (including in-flight async I/O) is done with
//     it — recycling a buffer another holder still reads is the same bug
//     as any use-after-free.
//   - Any []byte may be Put, not only ones that came from Get: foreign
//     buffers are filed under the size class their capacity fills, so
//     tiers that allocate internally still feed the pool.
//
// Pooling is sync.Pool-backed per class: unused buffers are reclaimed by
// the garbage collector, so an idle process holds nothing.
package bufpool

import (
	"math/bits"
	"sync"
)

// minClassBits is the smallest pooled size class (1<<minClassBits
// bytes); requests below it are rounded up — the waste is capped at the
// class size and tiny buffers are cheap to allocate anyway.
const minClassBits = 10 // 1 KiB

// maxClassBits is the largest pooled size class. Requests beyond it fall
// back to plain allocation and Put drops them (a single such buffer can
// exceed any sensible cached working set).
const maxClassBits = 28 // 256 MiB

var classes [maxClassBits - minClassBits + 1]sync.Pool

// classFor returns the class index whose buffers can hold n bytes, or
// -1 when n is outside the pooled range.
func classFor(n int) int {
	if n <= 0 {
		return -1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2(n)), and 0 for n==1
	if b < minClassBits {
		b = minClassBits
	}
	if b > maxClassBits {
		return -1
	}
	return b - minClassBits
}

// Get returns a []byte of length n. The backing array comes from the
// size-classed pool when one is cached, so contents are arbitrary —
// callers must fully overwrite the buffer (every current call site reads
// or receives exactly len bytes into it).
func Get(n int) []byte {
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	if p, _ := classes[c].Get().(*[]byte); p != nil {
		return (*p)[:n]
	}
	return make([]byte, n, 1<<(c+minClassBits))
}

// Put recycles b's backing array into the class its capacity fills.
// Buffers outside the pooled range (and nil) are dropped. The caller
// must own b exclusively: no other goroutine, async operation, or
// aliasing view may touch it after Put.
func Put(b []byte) {
	c := bits.Len(uint(cap(b))) - 1 // floor(log2(cap)): the class cap fills
	if cap(b) == 0 || c < minClassBits || c > maxClassBits {
		return
	}
	full := b[:cap(b)]
	classes[c-minClassBits].Put(&full)
}
