// Package tierlock implements MLP-Offload's virtual-tier concurrency
// control (§3.2): at most one worker process per compute node accesses a
// given alternative storage path at a time. A worker holding the lock owns
// the device's full bandwidth; the remaining workers overlap CPU updates or
// use *other* storage paths, producing the natural interleaving that load
// balances I/O across the virtual tier without global synchronization.
//
// In the paper this is a process-exclusive, thread-shared lock layered on
// libaio. Here a Manager plays the role of the node-scoped lock table; the
// lock is fair (FIFO) and context-aware so a canceled fetch does not leave
// a worker queued forever.
package tierlock

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/datastates/mlpoffload/internal/clock"
)

// Manager is a node-scoped table of named FIFO locks, one per storage path.
type Manager struct {
	mu    sync.Mutex
	locks map[string]*fifoLock
	clk   clock.Clock
	// Disabled turns every Acquire into a no-op (the DeepSpeed baseline:
	// uncoordinated concurrent access).
	disabled bool
}

// NewManager creates an empty lock table on the wall clock. If exclusive
// is false the manager is disabled and Acquire returns immediately
// (baseline behaviour).
func NewManager(exclusive bool) *Manager {
	return NewManagerOn(exclusive, nil)
}

// NewManagerOn creates a lock table whose wait accounting reads the given
// clock (nil = wall clock) — virtual time makes Stats.WaitTotal exact in
// tests.
func NewManagerOn(exclusive bool, clk clock.Clock) *Manager {
	return &Manager{locks: make(map[string]*fifoLock), clk: clock.Or(clk), disabled: !exclusive}
}

// Exclusive reports whether the manager enforces exclusive access.
func (m *Manager) Exclusive() bool { return !m.disabled }

// fifoLock is one tier's lock. A queued Acquire waits on a ticket, a
// channel of capacity 1 the releasing holder sends the grant into;
// tickets are recycled through free, so neither a grant nor a queued
// wait allocates once the lock has seen its peak queue.
type fifoLock struct {
	mu      sync.Mutex
	held    bool
	waiters []chan struct{} // FIFO
	free    []chan struct{}
	// release is every grant's Release, built once.
	release Release
	// stats
	grants    int64
	waitTotal time.Duration
}

func (m *Manager) lock(tier string) *fifoLock {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.locks[tier]
	if !ok {
		l = &fifoLock{}
		l.release = l.unlock
		m.locks[tier] = l
	}
	return l
}

// Release is returned by Acquire and must be called exactly once per
// grant. Calling it while the lock is free is a no-op; calling it again
// after the lock passed to another holder releases that holder's grant,
// so a caller must not keep a Release past its one call. (Every grant of
// a lock shares one Release, which is what keeps a grant from
// allocating.)
type Release func()

var noop Release = func() {}

// Acquire obtains exclusive access to the named tier, blocking in FIFO
// order, or returns ctx.Err() if the context is canceled while queued.
// When the manager is disabled it returns immediately with a no-op release.
func (m *Manager) Acquire(ctx context.Context, tier string) (Release, error) {
	if m.disabled {
		return noop, nil
	}
	l := m.lock(tier)
	start := m.clk.Now()

	l.mu.Lock()
	if !l.held && len(l.waiters) == 0 {
		l.held = true
		l.grants++
		l.mu.Unlock()
		return l.release, nil
	}
	ticket := l.ticket()
	l.waiters = append(l.waiters, ticket)
	l.mu.Unlock()

	select {
	case <-ticket:
		l.mu.Lock()
		l.grants++
		l.waitTotal += m.clk.Since(start)
		l.free = append(l.free, ticket)
		l.mu.Unlock()
		return l.release, nil
	case <-ctx.Done():
		// Withdraw from the queue; if the ticket fired concurrently, pass
		// the grant along instead of leaking it.
		l.mu.Lock()
		for i, w := range l.waiters {
			if w == ticket {
				l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
				l.free = append(l.free, ticket)
				l.mu.Unlock()
				return nil, ctx.Err()
			}
		}
		// Ticket already granted (sent under mu, so it is in the buffer):
		// we hold the lock; take the grant and release it properly.
		<-ticket
		l.free = append(l.free, ticket)
		l.mu.Unlock()
		l.unlock()
		return nil, ctx.Err()
	}
}

// ticket returns a recycled ticket, or a new one. Caller holds mu.
func (l *fifoLock) ticket() chan struct{} {
	if n := len(l.free); n > 0 {
		t := l.free[n-1]
		l.free = l.free[:n-1]
		return t
	}
	return make(chan struct{}, 1)
}

// TryAcquire obtains the lock only if it is immediately free.
func (m *Manager) TryAcquire(tier string) (Release, bool) {
	if m.disabled {
		return noop, true
	}
	l := m.lock(tier)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.held || len(l.waiters) > 0 {
		return nil, false
	}
	l.held = true
	l.grants++
	return l.release, true
}

// unlock hands the lock to the longest waiter — held stays true — or
// frees it; on a free lock it does nothing. The waiter queue shifts in
// place, keeping its backing array.
func (l *fifoLock) unlock() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.held {
		return
	}
	if n := len(l.waiters); n > 0 {
		next := l.waiters[0]
		copy(l.waiters, l.waiters[1:])
		l.waiters[n-1] = nil
		l.waiters = l.waiters[:n-1]
		next <- struct{}{} // capacity 1 and one grant per ticket: never blocks
		return
	}
	l.held = false
}

// Stats describes one tier lock's contention.
type Stats struct {
	Grants    int64
	WaitTotal time.Duration
	Queued    int
}

// Stats returns the contention statistics for a tier.
func (m *Manager) Stats(tier string) Stats {
	l := m.lock(tier)
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Grants: l.grants, WaitTotal: l.waitTotal, Queued: len(l.waiters)}
}

// String summarizes all tracked locks.
func (m *Manager) String() string {
	m.mu.Lock()
	names := make([]string, 0, len(m.locks))
	for n := range m.locks {
		names = append(names, n)
	}
	m.mu.Unlock()
	out := ""
	for _, n := range names {
		s := m.Stats(n)
		out += fmt.Sprintf("%s: grants=%d wait=%v queued=%d\n", n, s.Grants, s.WaitTotal, s.Queued)
	}
	return out
}
