//go:build !race

package tierlock

import (
	"context"
	"runtime"
	"sync"
	"testing"
)

// TestAcquireReleaseAllocatesNothing pins the grant path: an uncontended
// Acquire, a TryAcquire and their Release allocate nothing, and under
// contention only the first queued wait makes a ticket — after that
// tickets are recycled.
func TestAcquireReleaseAllocatesNothing(t *testing.T) {
	m := NewManager(true)
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(100, func() {
		rel, err := m.Acquire(ctx, "nvme")
		if err != nil {
			t.Fatal(err)
		}
		rel()
		rel, ok := m.TryAcquire("nvme")
		if !ok {
			t.Fatal("TryAcquire on a free lock failed")
		}
		rel()
	}); allocs != 0 {
		t.Errorf("uncontended grant: %.1f allocs/op, want 0", allocs)
	}

	const workers, grants = 2, 2000
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < grants; i++ {
				rel, err := m.Acquire(ctx, "nvme")
				if err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched() // let the other worker queue behind us
				rel()
			}
		}()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	close(start)
	wg.Wait()
	runtime.ReadMemStats(&after)
	if s := m.Stats("nvme"); s.Queued != 0 {
		t.Fatalf("%d waiters left queued", s.Queued)
	}
	// One ticket per concurrent waiter plus the queue and free-list
	// arrays; anything per grant would read in the thousands.
	if allocs := after.Mallocs - before.Mallocs; allocs > 16 {
		t.Errorf("contended grants: %d allocations over %d grants, want only the first tickets", allocs, workers*grants)
	}
}
