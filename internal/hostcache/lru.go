package hostcache

import "sync"

// LRU models the host staging buffers as a least-recently-used set of
// subgroups, which is how DeepNVMe's rotating pinned buffers behave: after
// a subgroup is updated it stays in host memory until K more-recent
// subgroups displace it.
//
// This single mechanism produces both behaviours the paper contrasts:
// under the sequential order the tail cached at the end of a phase is
// displaced long before the next phase reaches it (zero hits — thrashing),
// while under the alternating order the tail is exactly the head of the
// next phase (K hits — the "Enable Caching" speedup).
//
// Pinning supports the concurrent update pipeline: a subgroup that is in
// flight through the issuer→worker→committer stages is pinned, and pinned
// members are never chosen as eviction victims, so parallel update workers
// cannot flush each other's working set from under an in-progress Adam
// step. If every member is pinned the set temporarily exceeds capacity;
// later TouchEvict calls drain the overflow once pins are released.
type LRU struct {
	mu       sync.Mutex
	capacity int
	order    []int // front = least recently used
	member   map[int]bool
	pins     map[int]int // pin counts; pinned members are never evicted
}

// NewLRU creates an LRU set with the given capacity (>= 0).
func NewLRU(capacity int) *LRU {
	if capacity < 0 {
		panic("hostcache: negative LRU capacity")
	}
	return &LRU{capacity: capacity, member: make(map[int]bool), pins: make(map[int]int)}
}

// Capacity returns the maximum resident count.
func (l *LRU) Capacity() int { return l.capacity }

// Len returns the resident count.
func (l *LRU) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.order)
}

// Contains reports residency without affecting recency.
func (l *LRU) Contains(sg int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.member[sg]
}

// Pin increments sg's pin count, shielding it from eviction. Pinning a
// non-member is allowed (the pin takes effect if sg is inserted later).
func (l *LRU) Pin(sg int) {
	l.mu.Lock()
	l.pins[sg]++
	l.mu.Unlock()
}

// Unpin decrements sg's pin count. Unpinning an unpinned subgroup is
// always an engine bug and panics.
func (l *LRU) Unpin(sg int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pins[sg] <= 0 {
		panic("hostcache: unpin of unpinned subgroup")
	}
	l.pins[sg]--
	if l.pins[sg] == 0 {
		delete(l.pins, sg)
	}
}

// Pinned reports whether sg currently holds at least one pin.
func (l *LRU) Pinned(sg int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pins[sg] > 0
}

// Touch marks sg as most recently used, inserting it if absent. If the
// insertion overflows capacity the least recently used unpinned member is
// evicted and returned with true. With capacity 0 nothing is ever retained
// and Touch reports sg itself as evicted.
func (l *LRU) Touch(sg int) (evicted int, didEvict bool) {
	ev := l.TouchEvict(nil, sg)
	if len(ev) == 0 {
		return 0, false
	}
	return ev[0], true
}

// TouchEvict marks sg as most recently used, inserting it if absent, then
// evicts least-recently-used unpinned members while the set exceeds
// capacity. It appends every victim to dst (usually zero or one; more
// after a period where all members were pinned) and returns the result,
// so a caller passing its own scratch[:0] allocates nothing. With
// capacity 0 nothing is ever retained and sg itself is the victim.
func (l *LRU) TouchEvict(dst []int, sg int) []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.capacity == 0 {
		return append(dst, sg)
	}
	if l.member[sg] {
		l.remove(sg)
	}
	l.order = append(l.order, sg)
	l.member[sg] = true
	out := dst
	for len(l.order) > l.capacity {
		victim, ok := l.victim()
		if !ok {
			break // every member pinned: temporary overflow
		}
		l.remove(victim)
		delete(l.member, victim)
		out = append(out, victim)
	}
	return out
}

// victim returns the least recently used unpinned member. Caller holds mu.
func (l *LRU) victim() (int, bool) {
	for _, sg := range l.order {
		if l.pins[sg] == 0 {
			return sg, true
		}
	}
	return 0, false
}

// remove deletes sg from the order slice. Caller holds mu.
func (l *LRU) remove(sg int) {
	for i, v := range l.order {
		if v == sg {
			l.order = append(l.order[:i], l.order[i+1:]...)
			return
		}
	}
}

// Members returns the resident subgroups from least to most recently used.
func (l *LRU) Members() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.order...)
}
