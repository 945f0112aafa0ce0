package kernpool

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestCoversRangeExactlyOnce checks every index is visited exactly once
// at several pool sizes and range lengths, including ones that are not
// chunk multiples.
func TestCoversRangeExactlyOnce(t *testing.T) {
	sizes := []int{0, 1, 7, ChunkElems - 1, ChunkElems, ChunkElems + 1, 3*ChunkElems + 17}
	for _, workers := range []int{0, 1, 2, 7} {
		p := New(workers)
		for _, n := range sizes {
			counts := make([]int32, n)
			p.Run(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
		p.Close()
	}
}

// TestChunkBoundariesIndependentOfWorkers pins the determinism contract:
// the set of (lo, hi) chunks depends only on n.
func TestChunkBoundariesIndependentOfWorkers(t *testing.T) {
	n := 5*ChunkElems + 123
	collect := func(workers int) map[[2]int]bool {
		p := New(workers)
		defer p.Close()
		var mu sync.Mutex
		got := make(map[[2]int]bool)
		p.Run(n, func(lo, hi int) {
			mu.Lock()
			got[[2]int{lo, hi}] = true
			mu.Unlock()
		})
		return got
	}
	ref := collect(1)
	for _, workers := range []int{2, 7} {
		got := collect(workers)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d chunks, want %d", workers, len(got), len(ref))
		}
		for c := range ref {
			if !got[c] {
				t.Fatalf("workers=%d: missing chunk %v", workers, c)
			}
		}
	}
}

// TestNilPoolRunsInline covers the serial degenerate forms.
func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	ran := 0
	p.Run(10, func(lo, hi int) { ran += hi - lo })
	if ran != 10 {
		t.Fatalf("nil pool ran %d of 10", ran)
	}
	if p.Workers() != 1 {
		t.Fatalf("nil pool Workers() = %d", p.Workers())
	}
	p.Close() // must not panic
}

// TestConcurrentCallers runs several goroutines through one pool; the
// non-blocking offer must never deadlock even when all workers are busy.
func TestConcurrentCallers(t *testing.T) {
	p := New(2)
	defer p.Close()
	const callers = 8
	n := 4*ChunkElems + 5
	var wg sync.WaitGroup
	var total atomic.Int64
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Run(n, func(lo, hi int) { total.Add(int64(hi - lo)) })
		}()
	}
	wg.Wait()
	if got := total.Load(); got != int64(callers*n) {
		t.Fatalf("processed %d elements, want %d", got, callers*n)
	}
}

// TestRunAfterCloseIsInline verifies post-Close Runs degrade to serial.
func TestRunAfterCloseIsInline(t *testing.T) {
	p := New(4)
	p.Close()
	p.Close() // idempotent
	ran := 0
	p.Run(2*ChunkElems+3, func(lo, hi int) { ran += hi - lo })
	if ran != 2*ChunkElems+3 {
		t.Fatalf("ran %d", ran)
	}
}

// TestPooledRunAllocatesNothing pins allocation-free dispatch: Run
// recycles its shared descriptor, so a pooled Run with a pre-built fn
// allocates nothing, whether or not a helper joins.
func TestPooledRunAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under -race")
	}
	p := New(2)
	defer p.Close()
	var total atomic.Int64
	fn := func(lo, hi int) { total.Add(int64(hi - lo)) }
	n := 3*ChunkElems + 5
	if a := testing.AllocsPerRun(200, func() { p.Run(n, fn) }); a != 0 {
		t.Fatalf("pooled Run allocates %v times per call, want 0", a)
	}
	if got := total.Load(); got%int64(n) != 0 {
		t.Fatalf("processed %d elements, not a multiple of %d", got, n)
	}
}

// TestRecycledDescriptorsUnderContention drives many short Runs from
// several callers through one pool, so helpers often receive a
// descriptor only after its caller has returned it; every Run must
// still cover its own range exactly once.
func TestRecycledDescriptorsUnderContention(t *testing.T) {
	p := New(3)
	defer p.Close()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				n := (c+k)%3*ChunkElems + ChunkElems + k
				var covered atomic.Int64
				p.Run(n, func(lo, hi int) { covered.Add(int64(hi - lo)) })
				if got := covered.Load(); got != int64(n) {
					t.Errorf("caller %d run %d covered %d of %d", c, k, got, n)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
