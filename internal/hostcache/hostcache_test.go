package hostcache

//mlpvet:allowfile clockcheck time.After here is a liveness timeout guard, not measured time

import (
	"testing"
	"testing/quick"
	"time"
)

func TestUpdateOrderSequential(t *testing.T) {
	for iter := 0; iter < 4; iter++ {
		order := UpdateOrder(Sequential, 5, iter)
		for i, sg := range order {
			if sg != i {
				t.Fatalf("iter %d: order = %v", iter, order)
			}
		}
	}
}

func TestUpdateOrderAlternating(t *testing.T) {
	asc := UpdateOrder(Alternating, 4, 0)
	desc := UpdateOrder(Alternating, 4, 1)
	asc2 := UpdateOrder(Alternating, 4, 2)
	wantAsc := []int{0, 1, 2, 3}
	wantDesc := []int{3, 2, 1, 0}
	for i := range wantAsc {
		if asc[i] != wantAsc[i] || desc[i] != wantDesc[i] || asc2[i] != wantAsc[i] {
			t.Fatalf("orders: %v %v %v", asc, desc, asc2)
		}
	}
}

func TestPropertyOrderIsPermutation(t *testing.T) {
	f := func(mSeed, iterSeed uint8, alt bool) bool {
		m := int(mSeed%50) + 1
		iter := int(iterSeed % 10)
		pol := Sequential
		if alt {
			pol = Alternating
		}
		order := UpdateOrder(pol, m, iter)
		seen := make(map[int]bool, m)
		for _, sg := range order {
			if sg < 0 || sg >= m || seen[sg] {
				return false
			}
			seen[sg] = true
		}
		return len(seen) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAlternatingConsecutivePhasesOverlapAtBoundary(t *testing.T) {
	// The tail of phase k equals the head of phase k+1 — the property the
	// caching optimization exploits.
	m, cap := 10, 3
	for iter := 0; iter < 5; iter++ {
		cur := UpdateOrder(Alternating, m, iter)
		next := UpdateOrder(Alternating, m, iter+1)
		tail := cur[m-cap:]
		head := next[:cap]
		for i := 0; i < cap; i++ {
			if tail[cap-1-i] != head[i] {
				t.Fatalf("iter %d: tail %v vs head %v", iter, tail, head)
			}
		}
	}
}

func TestExpectedHits(t *testing.T) {
	if got := ExpectedHits(Alternating, 100, 30); got != 30 {
		t.Errorf("alternating hits = %d, want 30", got)
	}
	if got := ExpectedHits(Sequential, 100, 30); got != 0 {
		t.Errorf("sequential hits = %d, want 0 (thrashing)", got)
	}
	if got := ExpectedHits(Sequential, 10, 30); got != 10 {
		t.Errorf("all-fits hits = %d, want 10", got)
	}
	if got := ExpectedHits(Alternating, 10, 10); got != 10 {
		t.Errorf("exact-fit hits = %d, want 10", got)
	}
}

func TestBufferPoolBlocking(t *testing.T) {
	p := NewBufferPool(1, 64)
	b := p.Get()
	if len(b) != 64 {
		t.Fatalf("buffer size %d", len(b))
	}
	if p.TryGet() != nil {
		t.Error("TryGet should fail when exhausted")
	}
	done := make(chan struct{})
	go func() {
		p.Get() // blocks until Put
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Get returned before Put")
	case <-time.After(10 * time.Millisecond):
	}
	p.Put(b)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Get never unblocked")
	}
}

func TestBufferPoolMisuse(t *testing.T) {
	p := NewBufferPool(1, 8)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong-size Put should panic")
			}
		}()
		p.Put(make([]byte, 4))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("overflow Put should panic")
			}
		}()
		p.Put(make([]byte, 8)) // pool already full
	}()
}

func TestBufferPoolAccounting(t *testing.T) {
	p := NewBufferPool(3, 16)
	if p.Free() != 3 || p.BufSize() != 16 {
		t.Fatalf("Free=%d BufSize=%d", p.Free(), p.BufSize())
	}
	a, b := p.Get(), p.Get()
	if p.Free() != 1 {
		t.Errorf("Free = %d, want 1", p.Free())
	}
	p.Put(a)
	p.Put(b)
	if p.Free() != 3 {
		t.Errorf("Free = %d, want 3", p.Free())
	}
}

func TestOrderStringer(t *testing.T) {
	if Sequential.String() != "sequential" || Alternating.String() != "alternating" {
		t.Error("Order.String broken")
	}
	if Order(9).String() == "" {
		t.Error("unknown order should still stringify")
	}
}
