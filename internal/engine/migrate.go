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
// tier (loc) disagrees with the plan; MigrationWindow background workers
// drain the queue at aio.Migration priority — the lowest class, so
// migration traffic can never delay a demand fetch, while the scheduler's
// aging still guarantees it progresses.
//
// Lifecycle of one migration (read old → write new → flip → delete old):
//
//	1. Under cacheMu: skip if the subgroup became host-resident, is
//	   pinned (a fetch is in flight or imminent), or is already being
//	   migrated; otherwise resolve from=loc, to=plan.TierFor and publish
//	   a migrating ticket. From here the issuer waits on the ticket
//	   before classifying the subgroup, so no fetch can target a tier
//	   the migrator is about to abandon.
//	2. Honor the subgroup's flush ticket: if an eviction flush to the
//	   source tier is still in flight, wait until it is durable
//	   (read-after-write on the tier, same ordering the issuer uses for
//	   same-phase refetches).
//	3. Copy: read the state object from the source tier and write it to
//	   the destination, both at Migration class, staged through one of
//	   MigrationWindow pooled buffers (the bound on migration memory and
//	   concurrency).
//	4. Under cacheMu: flip loc to the destination and clear the ticket —
//	   only after the copy landed, so a failure at any earlier point
//	   leaves the source object authoritative and the subgroup simply
//	   re-enqueues at the next replan.
//	5. Delete the stale source object (best effort; a failed delete
//	   orphans bytes but can never corrupt, and is counted).
//
// Gradient objects are never migrated: they are per-iteration transients
// whose location is tracked in gradLoc, and backward reclaims a stale
// gradient object itself when the state has moved between iterations.
//
// drain() quiesces the queue completely, so checkpoint manifests always
// record a consistent (possibly still partially un-converged) placement
// and Restore stays bit-identical.

// migrationTicket marks an in-flight cross-tier copy; done is closed when
// loc has been flipped (or the migration abandoned).
type migrationTicket struct {
	done chan struct{}
}

// migStatsCell accumulates migrator counters.
type migStatsCell struct {
	mu        sync.Mutex
	moves     int64
	bytes     int64
	abandoned int64
	orphans   int64
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
	// Orphans counts stale source objects whose post-copy delete failed.
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
		Orphans:   e.migStats.orphans,
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
// an adaptive replan; a no-op when live migration is disabled.
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
// is in flight. A no-op when live migration is disabled.
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

// migrator is one background migration worker; MigrationWindow of them
// run per engine, each staging through one pooled buffer at a time.
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
	if from == locHost || e.migrating[sg] != nil || e.lru.Pinned(sg) {
		// Host-resident (an eviction will already flush to the planned
		// tier), mid-migration by another worker, or wanted by the update
		// pipeline right now — in every case the move is moot or unsafe.
		e.cacheMu.Unlock()
		e.abandonMigration(nil)
		return
	}
	to := e.plan.TierFor(sg)
	if to == from {
		e.cacheMu.Unlock()
		return // converged since it was enqueued
	}
	tk := &migrationTicket{done: make(chan struct{})}
	e.migrating[sg] = tk
	e.cacheMu.Unlock()

	err := e.copyState(sg, from, to)

	e.cacheMu.Lock()
	if err == nil {
		e.loc[sg] = to
	}
	delete(e.migrating, sg)
	e.cacheMu.Unlock()
	close(tk.done)

	if err != nil {
		e.abandonMigration(fmt.Errorf("engine: migrate subgroup %d %s→%s: %w",
			sg, e.names[from], e.names[to], err))
		return
	}

	// The destination copy is authoritative; reclaim the source object.
	// Failure here can only orphan bytes, never corrupt. Recorded as the
	// subgroup's delete ticket and waited inline: a later eviction or
	// migration writing this key back to the source tier orders behind it
	// (phase-start waitDeletes, or the ticket wait in copyState).
	if dop, derr := e.aios[from].SubmitDelete(aio.Migration, e.key(sg)); derr == nil {
		e.recordDelete(sg, dop)
		if dop.Wait() != nil {
			e.countOrphan()
		}
	} else {
		e.countOrphan()
	}

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
	// Read-after-write: an eviction flush of this subgroup to the source
	// tier may still be in flight; its ticket orders the migration read
	// after the write is durable, exactly like a same-phase refetch.
	e.mu.Lock()
	ft := e.flushTickets[sg]
	e.mu.Unlock()
	if ft != nil {
		<-ft.done
		if ft.op == nil {
			return fmt.Errorf("source flush failed to submit")
		}
		if err := ft.op.Wait(); err != nil {
			return fmt.Errorf("source flush: %w", err)
		}
	}

	// Delete-after-write hazard on the destination: a previous eviction or
	// migration may still have a reclamation delete of this key in flight
	// on the destination tier; the write must not land under it.
	e.mu.Lock()
	dt := e.deleteTickets[sg]
	e.mu.Unlock()
	if dt != nil {
		//mlpvet:allow aioop ordering barrier only: the migration must not write under an in-flight delete; the delete's outcome is irrelevant
		_ = dt.Wait()
	}

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
	// Feed the replanner and the per-iteration class breakdown. The
	// estimator observes wire bytes — device bandwidth, not the
	// codec-inflated effective rate.
	e.est.ObserveRead(e.names[from], float64(rop.WireBytes()), rop.TransferTime().Seconds())
	e.est.ObserveWrite(e.names[to], float64(wop.WireBytes()), wop.TransferTime().Seconds())
	e.recordAsyncOp(rop)
	e.recordAsyncOp(wop)
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

func (e *Engine) countOrphan() {
	e.migStats.mu.Lock()
	e.migStats.orphans++
	e.migStats.mu.Unlock()
}
