package engine

import (
	"fmt"
	"sync"

	"github.com/datastates/mlpoffload/internal/aio"
	"github.com/datastates/mlpoffload/internal/subgroup"
)

// Live subgroup migration (§3.3 replanning, made an enforced contract).
//
// AdaptivePlacement recomputes the subgroup→tier split every iteration,
// but historically a replanned subgroup's bytes only moved when it
// happened to pass through the host cache and get flush-evicted: cold
// subgroups stayed on the wrong tier indefinitely, so the plan and
// reality drifted apart. The migrator closes that gap. After each replan
// the update phase enqueues every offloaded subgroup whose actual backing
// tier (loc) disagrees with the plan; two background workers (migrators)
// drain the queue at aio.Migration priority — the lowest class, so
// migration traffic can never delay a demand fetch, while the scheduler's
// aging still guarantees it progresses.
//
// Lifecycle of one migration (claim → read old → write new → flip →
// reclaim old → release), under the engine's one ordering rule (see the
// Engine struct): ops on a subgroup's key are submitted only by whoever
// holds it, and aio runs them in submission order on each tier.
//
//	1. Claim, under cacheMu: skip if the subgroup became host-resident,
//	   is pinned (a fetch is in flight or imminent) or is held (another
//	   migrator, or the committer still queueing its eviction);
//	   otherwise resolve from=loc, to=plan.TierFor and take the hold.
//	   From here the issuer waits for the release before classifying
//	   the subgroup, so no fetch can target a tier the migrator is
//	   about to abandon.
//	2. Copy: read the state object from the source tier and write it to
//	   the destination, both at Migration class, staged through one of
//	   the migrators' pooled buffers (the bound on migration memory and
//	   concurrency). The read queues behind an eviction write still in
//	   flight on the source, the write behind a reclaim still in flight
//	   on the destination — by submission order, no waiting. Both are
//	   waited, for the data and for durability.
//	3. Flip loc to the destination under cacheMu — only after the copy
//	   landed, so a failure at any earlier point leaves the source
//	   object authoritative and the subgroup simply re-enqueues at the
//	   next replan.
//	4. Queue the reclaim of the stale source object (best effort; a
//	   failed delete orphans bytes but can never corrupt, and is
//	   counted), and only then release the hold: an eviction that later
//	   writes this key back to the source tier is submitted after the
//	   delete, so it runs after it.
//
// Step 4 is the rule's rationale. The migrator used to release before
// submitting the delete; a tier-op trace of a failing convergence run
// shows a descheduled migrator issuing it several phases later, right
// after an eviction had written the same key back to that tier:
// write-end tier1 … delete-begin tier1 … read → "key not found" — the
// subgroup's only copy, deleted (a few runs in a hundred).
//
// Gradient objects are never migrated: they are per-iteration transients
// whose location is tracked in gradLoc, and backward reclaims a stale
// gradient object itself when the state has moved between iterations.
//
// drain() quiesces the queue completely, so checkpoint manifests always
// record a consistent (possibly still partially un-converged) placement
// and Restore stays bit-identical.

// migStatsCell accumulates migrator counters.
type migStatsCell struct {
	mu        sync.Mutex
	moves     int64
	bytes     int64
	abandoned int64
	orphans   map[string]struct{} // "tier/key" of every stale object left behind
	firstErr  error
}

// MigrationStats is a snapshot of the live migrator's counters.
type MigrationStats struct {
	// Moves counts completed migrations; Bytes the payload moved.
	Moves int64
	Bytes int64
	// Abandoned counts migrations skipped because the subgroup was
	// fetched, pinned, evicted or re-planned before the copy started, or
	// because the copy failed (the source object stays authoritative).
	Abandoned int64
	// Orphans counts the distinct stale objects left on a tier: state and
	// gradient objects whose reclaiming delete failed, and live-key copies
	// a drain found on a tier other than the subgroup's own.
	Orphans int64
	// Err is the first copy failure observed (nil when all clean).
	Err error
}

// MigrationStats returns a snapshot of the migrator's counters.
func (e *Engine) MigrationStats() MigrationStats {
	e.migStats.mu.Lock()
	defer e.migStats.mu.Unlock()
	return MigrationStats{
		Moves:     e.migStats.moves,
		Bytes:     e.migStats.bytes,
		Abandoned: e.migStats.abandoned,
		Orphans:   int64(len(e.migStats.orphans)),
		Err:       e.migStats.firstErr,
	}
}

// MisplacedSubgroups reports how many offloaded subgroups currently
// reside on a tier other than the one the plan assigns — the divergence
// the migrator exists to drive to zero.
func (e *Engine) MisplacedSubgroups() int {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	n := 0
	for sg, l := range e.loc {
		if l != locHost && l != e.plan.TierFor(sg) {
			n++
		}
	}
	return n
}

// scheduleMigrations enqueues every offloaded subgroup whose backing tier
// disagrees with the (fresh) plan. Called by the update phase right after
// an adaptive replan; a no-op without AdaptivePlacement.
func (e *Engine) scheduleMigrations() {
	if e.migPool == nil {
		return
	}
	e.cacheMu.Lock()
	var due []int
	for sg, l := range e.loc {
		if l != locHost && l != e.plan.TierFor(sg) {
			due = append(due, sg)
		}
	}
	e.cacheMu.Unlock()
	if len(due) == 0 {
		return
	}
	e.migMu.Lock()
	for _, sg := range due {
		if !e.migQueued[sg] {
			e.migQueued[sg] = true
			e.migOrder = append(e.migOrder, sg)
		}
	}
	e.migCond.Broadcast()
	e.migMu.Unlock()
}

// nextMigration blocks until a migration is queued (returning it and
// true) or the migrator is stopped (false). It marks the migration
// in-flight; the caller must call migrationDone when finished.
func (e *Engine) nextMigration() (int, bool) {
	e.migMu.Lock()
	defer e.migMu.Unlock()
	for len(e.migOrder) == 0 {
		if e.migClosed {
			return 0, false
		}
		e.migCond.Wait()
	}
	sg := e.migOrder[0]
	e.migOrder = e.migOrder[1:]
	delete(e.migQueued, sg)
	e.migInflight++
	return sg, true
}

// migrationDone retires an in-flight migration and wakes drainers.
func (e *Engine) migrationDone() {
	e.migMu.Lock()
	e.migInflight--
	e.migCond.Broadcast()
	e.migMu.Unlock()
}

// drainMigrations blocks until the migration queue is empty and no copy
// is in flight. A no-op without AdaptivePlacement.
func (e *Engine) drainMigrations() {
	if e.migPool == nil {
		return
	}
	e.migMu.Lock()
	for len(e.migOrder) > 0 || e.migInflight > 0 {
		e.migCond.Wait()
	}
	e.migMu.Unlock()
}

// stopMigrators shuts the migrator workers down (Close path).
func (e *Engine) stopMigrators() {
	e.migMu.Lock()
	e.migClosed = true
	e.migCond.Broadcast()
	e.migMu.Unlock()
	e.migWG.Wait()
}

// migrator is one background migration worker; an adaptive engine
// runs migrators of them, each staging through one pooled buffer at a time.
func (e *Engine) migrator() {
	defer e.migWG.Done()
	for {
		sg, ok := e.nextMigration()
		if !ok {
			return
		}
		e.migrateOne(sg)
		e.migrationDone()
	}
}

// migrateOne moves one subgroup's state object to its planned tier,
// following the lifecycle documented at the top of this file. All
// failure paths leave the source object authoritative.
func (e *Engine) migrateOne(sg int) {
	e.cacheMu.Lock()
	from := e.loc[sg]
	if from == locHost || e.held[sg] || e.lru.Pinned(sg) {
		// Host-resident (an eviction will already flush to the planned
		// tier), held by another migrator or the committer, or wanted by
		// the update pipeline right now — in every case the move is moot
		// or unsafe.
		e.cacheMu.Unlock()
		e.abandonMigration(nil)
		return
	}
	to := e.plan.TierFor(sg)
	if to == from {
		e.cacheMu.Unlock()
		return // converged since it was enqueued
	}
	e.held[sg] = true
	e.cacheMu.Unlock()
	defer e.release(sg)

	if err := e.copyState(sg, from, to); err != nil {
		e.abandonMigration(fmt.Errorf("engine: migrate subgroup %d %s→%s: %w",
			sg, e.names[from], e.names[to], err))
		return
	}
	e.cacheMu.Lock()
	e.loc[sg] = to
	e.cacheMu.Unlock()
	// The destination copy is authoritative; reclaim the source object
	// before the hold is released.
	e.reclaim(aio.Migration, from, e.key(sg))

	size := subgroup.StateBytes(e.shard.Subgroups[sg].Len())
	e.migStats.mu.Lock()
	e.migStats.moves++
	e.migStats.bytes += int64(size)
	e.migStats.mu.Unlock()
}

// copyState stages the subgroup's state object through a pooled buffer:
// read from the source tier, write to the destination, both at Migration
// priority. The write is waited before return, so the caller can flip loc
// knowing the destination object is durable.
func (e *Engine) copyState(sg, from, to int) error {
	size := subgroup.StateBytes(e.shard.Subgroups[sg].Len())
	buf := e.migPool.Get()
	defer e.migPool.Put(buf)
	key := e.key(sg)
	rop, err := e.aios[from].SubmitReadClass(aio.Migration, key, buf[:size])
	if err != nil {
		return err
	}
	// Same corrupt-retry discipline as the update phase: a transient
	// in-flight flip must not permanently record MigrationStats.Err for
	// a migration the next read would complete fine.
	if rop, err = e.awaitRead(from, rop, key, buf[:size]); err != nil {
		return err
	}
	// Zero-copy header peek before the destination write: a wrong or
	// malformed object must never become the subgroup's authoritative
	// copy (the source stays authoritative on any failure here).
	if id, n, _, err := subgroup.PeekHeader(buf[:size]); err != nil {
		return err
	} else if id != sg || n != e.shard.Subgroups[sg].Len() {
		return fmt.Errorf("source object is subgroup %d with %d params", id, n)
	}
	wop, err := e.aios[to].SubmitWriteClass(aio.Migration, key, buf[:size])
	if err != nil {
		return err
	}
	if err := wop.Wait(); err != nil {
		return err
	}
	// Feed the replanner.
	e.observe(from, rop)
	e.observe(to, wop)
	return nil
}

// abandonMigration counts a skipped or failed migration, recording the
// first real failure for MigrationStats.
func (e *Engine) abandonMigration(err error) {
	e.migStats.mu.Lock()
	e.migStats.abandoned++
	if err != nil && e.migStats.firstErr == nil {
		e.migStats.firstErr = err
	}
	e.migStats.mu.Unlock()
}

// countOrphan records a stale object left on a tier. The same object
// reported twice — its delete failed, then a drain found it — is one
// orphan.
func (e *Engine) countOrphan(tier int, key string) {
	e.migStats.mu.Lock()
	e.migStats.orphans[e.names[tier]+"/"+key] = struct{}{}
	e.migStats.mu.Unlock()
}
