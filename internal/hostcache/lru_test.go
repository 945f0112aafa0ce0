package hostcache

import (
	"sync"
	"testing"
)

func TestLRUBasics(t *testing.T) {
	l := NewLRU(2)
	if l.Capacity() != 2 || l.Len() != 0 || l.Contains(1) {
		t.Fatal("fresh LRU wrong")
	}
	if _, ev := l.Touch(1); ev {
		t.Error("unexpected eviction")
	}
	if _, ev := l.Touch(2); ev {
		t.Error("unexpected eviction")
	}
	v, ev := l.Touch(3)
	if !ev || v != 1 {
		t.Errorf("evicted %d (%v), want 1", v, ev)
	}
	if !l.Contains(2) || !l.Contains(3) || l.Contains(1) {
		t.Error("membership wrong after eviction")
	}
}

func TestLRUTouchRefreshes(t *testing.T) {
	l := NewLRU(2)
	l.Touch(1)
	l.Touch(2)
	l.Touch(1) // refresh: now 2 is oldest
	v, ev := l.Touch(3)
	if !ev || v != 2 {
		t.Errorf("evicted %d, want 2", v)
	}
	mem := l.Members()
	if len(mem) != 2 || mem[0] != 1 || mem[1] != 3 {
		t.Errorf("Members = %v", mem)
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	l := NewLRU(0)
	v, ev := l.Touch(5)
	if !ev || v != 5 {
		t.Errorf("zero-cap Touch = %d,%v; want immediate self-eviction", v, ev)
	}
	if l.Len() != 0 {
		t.Error("zero-cap retained something")
	}
}

// TestLRUReproducesPaperCacheBehaviour is the core behavioural check: the
// same LRU mechanism yields 0 hits under sequential ordering and K hits
// under alternating ordering, which is the entire "Enable Caching" effect.
func TestLRUReproducesPaperCacheBehaviour(t *testing.T) {
	const m, k = 20, 5
	countHits := func(policy Order) int {
		l := NewLRU(k)
		hits := 0
		for iter := 0; iter < 6; iter++ {
			for _, sg := range UpdateOrder(policy, m, iter) {
				if l.Contains(sg) {
					hits++
				}
				l.Touch(sg)
			}
		}
		return hits
	}
	seq := countHits(Sequential)
	alt := countHits(Alternating)
	if seq != 0 {
		t.Errorf("sequential hits = %d, want 0 (thrashing)", seq)
	}
	// 5 phase transitions after the first phase, k hits each.
	if alt != 5*k {
		t.Errorf("alternating hits = %d, want %d", alt, 5*k)
	}
}

func TestLRUNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewLRU(-1)
}

// TestLRUPinShieldsFromEviction: a pinned member is skipped as eviction
// victim; the next unpinned LRU member goes instead.
func TestLRUPinShieldsFromEviction(t *testing.T) {
	l := NewLRU(2)
	l.Touch(1)
	l.Touch(2)
	l.Pin(1) // LRU member, but pinned
	ev := l.TouchEvict(3)
	if len(ev) != 1 || ev[0] != 2 {
		t.Fatalf("evicted %v, want [2] (pinned 1 must survive)", ev)
	}
	if !l.Contains(1) || !l.Pinned(1) {
		t.Error("pinned member dropped")
	}
	l.Unpin(1)
}

// TestLRUPinOverflowDrains: when all older members are pinned, the
// just-touched subgroup itself is the victim — HostCacheSlots is a host
// memory budget, so eviction beats overflow. Only when every member
// including the new one is pinned does the set temporarily overflow, and
// the backlog drains on the first touch after unpinning.
func TestLRUPinOverflowDrains(t *testing.T) {
	l := NewLRU(2)
	l.Touch(1)
	l.Touch(2)
	l.Pin(1)
	l.Pin(2)
	// 1 and 2 pinned: the unpinned newcomer bounces straight back out.
	if ev := l.TouchEvict(3); len(ev) != 1 || ev[0] != 3 {
		t.Fatalf("evicted %v, want [3] (memory budget beats recency)", ev)
	}
	// Pinned newcomer: nothing evictable, set overflows.
	l.Pin(4)
	if ev := l.TouchEvict(4); len(ev) != 0 {
		t.Fatalf("evicted %v, want none (every member pinned)", ev)
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3 (temporary overflow)", l.Len())
	}
	l.Unpin(1)
	l.Unpin(2)
	l.Unpin(4)
	ev := l.TouchEvict(5)
	if len(ev) != 2 || ev[0] != 1 || ev[1] != 2 {
		t.Fatalf("evicted %v, want [1 2] (overflow drains oldest-first)", ev)
	}
	if l.Len() != 2 {
		t.Fatalf("len = %d, want 2 after drain", l.Len())
	}
}

// TestLRUPinCounts: pins nest; eviction is blocked until the last unpin.
func TestLRUPinCounts(t *testing.T) {
	l := NewLRU(1)
	l.Touch(7)
	l.Pin(7)
	l.Pin(7)
	l.Unpin(7)
	if !l.Pinned(7) {
		t.Fatal("pin count dropped too early")
	}
	// 8 is unpinned and over budget: it is evicted, 7 survives.
	if ev := l.TouchEvict(8); len(ev) != 1 || ev[0] != 8 {
		t.Fatalf("evicted %v, want [8] (pinned 7 must survive)", ev)
	}
	if !l.Contains(7) {
		t.Fatal("pinned member dropped")
	}
	l.Unpin(7)
	if l.Pinned(7) {
		t.Fatal("still pinned after final unpin")
	}
}

func TestLRUUnpinUnpinnedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewLRU(2).Unpin(3)
}

// TestLRUTouchEvictCapacityZero keeps the capacity-0 contract: nothing is
// retained and the touched subgroup itself is the victim.
func TestLRUTouchEvictCapacityZero(t *testing.T) {
	l := NewLRU(0)
	if ev := l.TouchEvict(5); len(ev) != 1 || ev[0] != 5 {
		t.Fatalf("evicted %v, want [5]", ev)
	}
	if l.Len() != 0 {
		t.Fatal("capacity-0 LRU retained a member")
	}
}

// TestLRUConcurrentPinTouch exercises the pin/unpin/touch surface from
// many goroutines; run under -race this guards the concurrent update
// pipeline's cache interactions.
func TestLRUConcurrentPinTouch(t *testing.T) {
	l := NewLRU(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sg := (g*200 + i) % 16
				l.Pin(sg)
				l.TouchEvict(sg)
				l.Contains(sg)
				l.Unpin(sg)
			}
		}(g)
	}
	wg.Wait()
	if l.Len() < 4 {
		t.Errorf("len = %d, want the cache full after the storm", l.Len())
	}
}
