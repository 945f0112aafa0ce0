package engine

import (
	"context"
	"errors"
	"fmt"

	"github.com/datastates/mlpoffload/internal/aio"
	"github.com/datastates/mlpoffload/internal/checkpoint"
	"github.com/datastates/mlpoffload/internal/fp16"
	"github.com/datastates/mlpoffload/internal/hostcache"
	"github.com/datastates/mlpoffload/internal/metrics"
	"github.com/datastates/mlpoffload/internal/subgroup"
	"github.com/datastates/mlpoffload/internal/tiercodec"
)

// Restore rebuilds the engine's training state from a checkpoint manifest:
// per-subgroup residency (loc and the host cache), the FP16 working copy,
// the live tier objects, and the optimizer-progress counters (Adam step,
// update-phase position, loss-scaler state). Whatever state the engine
// held before the call is discarded, so a freshly constructed engine —
// after a crash, in a new process — resumes training bit-identically to a
// run that was never interrupted.
//
// Re-placement follows the *current* plan: a subgroup the manifest found
// on one tier may be re-materialized on another if the placement changed
// across the restart (different tier set ordering, adaptive re-planning);
// only tier *names* referenced by pre-staged entries must still exist.
// Host-cache residency is rebuilt by replaying the checkpointed phase's
// commit order over the host-origin subgroups, so recency matches what
// training had produced; subgroups that no longer fit (a smaller cache
// after restart) are flushed to their planned tiers.
//
// Restore must run at an iteration boundary (no update phase in flight).
// On error the engine may be partially restored: retry Restore (possibly
// from another manifest) or rebuild the engine before training further.
func (e *Engine) Restore(ctx context.Context, r *checkpoint.Reader, m checkpoint.Manifest) error {
	if e.closed {
		return fmt.Errorf("engine: closed")
	}
	if err := m.Validate(); err != nil {
		return err
	}
	if m.Rank != e.cfg.Rank || m.Params != e.cfg.Params || m.SubgroupParams != e.cfg.SubgroupParams {
		return fmt.Errorf("engine: manifest geometry (rank %d, %d params, %d/subgroup) does not match engine (rank %d, %d params, %d/subgroup)",
			m.Rank, m.Params, m.SubgroupParams, e.cfg.Rank, e.cfg.Params, e.cfg.SubgroupParams)
	}
	if num := e.numerics(); m.Numerics != num {
		return fmt.Errorf("engine: manifest numerics %+v do not match engine %+v — resuming under a different mode or hyperparameters would silently diverge",
			m.Numerics, num)
	}
	if len(m.Entries) != len(e.shard.Subgroups) {
		return fmt.Errorf("engine: manifest has %d subgroups, engine holds %d", len(m.Entries), len(e.shard.Subgroups))
	}
	// Codec-presence check: encoded objects are self-describing, so any
	// codec reads any codec's objects — but a codec-less tier cannot
	// decode encoded snapshots, and a codec tier rejects raw ones. Catch
	// the mismatch before touching any data. Manifests without the map
	// (pre-codec versions) skip the check.
	if m.TierCodecs != nil {
		for i, name := range e.names {
			want, recorded := m.TierCodecs[name]
			if !recorded {
				continue
			}
			have := tiercodec.Describe(e.cfg.Tiers[i].Tier)
			if (want == "") != (have == "") {
				return fmt.Errorf("engine: checkpoint step %d wrote tier %q with codec %q but the engine has %q — configure codec middleware consistently (any codec decodes any codec's objects; only presence matters)",
					m.Step, name, want, have)
			}
		}
	}
	// Not drain: Restore is the recovery from a lost object, so it must not
	// insist that the residency it is about to discard be intact.
	if err := e.quiesce(); err != nil {
		return err
	}

	// Discard pre-restore residency; everything is rebuilt below. Live
	// keys surviving on tiers the rebuilt placement will not use are
	// reclaimed per subgroup in restoreSubgroup. States that aliased a
	// pooled fetch buffer return it — nothing references the bytes once
	// State drops.
	e.lru = hostcache.NewLRU(e.cfg.HostCacheSlots)
	for i, sg := range e.shard.Subgroups {
		e.dropState(sg)
		e.gradLoc[i] = -1
		e.staleTier[i] = -1
	}

	// Replay the checkpointed phase's commit order so host-cache recency
	// matches the interrupted run (phase p committed in the order of phase
	// index p-1; a fresh engine restores in ascending order).
	lastPhase := m.Phase - 1
	if lastPhase < 0 {
		lastPhase = 0
	}
	order := hostcache.UpdateOrder(e.cfg.Order, len(e.shard.Subgroups), lastPhase)
	// Live-key writes are submitted asynchronously so the next subgroup's
	// checkpoint read overlaps them; the fetch pool bounds the in-flight
	// window (a staging buffer returns to the pool only when its write
	// lands). All writes are verified before Restore returns.
	var writes []*aio.Op
	for _, sgID := range order {
		ent, _ := m.Entry(sgID) // dense per Validate
		op, err := e.restoreSubgroup(ctx, r, ent)
		if err != nil {
			_ = waitOps(writes) // no in-flight work may outlive the call
			return err
		}
		if op != nil {
			writes = append(writes, op)
		}
	}
	if err := waitOps(writes); err != nil {
		return fmt.Errorf("engine: restore flush: %w", err)
	}

	e.step = m.AdamStep
	e.phase = m.Phase
	e.skippedSteps = m.SkippedSteps
	if e.scaler != nil && m.Scaler != nil {
		if err := e.scaler.SetState(*m.Scaler); err != nil {
			return fmt.Errorf("engine: restore: %w", err)
		}
	}
	for i := range e.partialNorms {
		e.partialNorms[i] = 0
	}
	// The restore's traffic, its stale-key deletes included, is in no
	// iteration.
	e.idleIO()
	e.foldIO(new(metrics.Iteration))
	return nil
}

// restoreSubgroup materializes one subgroup from its checkpoint entry:
// host-origin subgroups come back into host memory (evicting through the
// cache as training would), everything else is rewritten to its live key
// on the tier the current plan assigns. Both paths refresh the FP16
// working copy from the serialized master parameters. The returned op,
// when non-nil, is the in-flight live-key write; its staging buffer
// returns to the pool on completion and the caller must verify it.
func (e *Engine) restoreSubgroup(ctx context.Context, r *checkpoint.Reader, ent checkpoint.Entry) (*aio.Op, error) {
	sgID := ent.SubgroupID
	sg := e.shard.Subgroups[sgID]
	size := subgroup.StateBytes(sg.Len())
	if ent.Bytes != int64(size) {
		return nil, fmt.Errorf("engine: restore subgroup %d: object is %d bytes, want %d", sgID, ent.Bytes, size)
	}
	buf := e.fetchPool.Get()
	if err := e.readEntry(ctx, r, ent, buf[:size]); err != nil {
		e.fetchPool.Put(buf)
		return nil, fmt.Errorf("engine: restore subgroup %d: %w", sgID, err)
	}
	id, n, _, err := subgroup.PeekHeader(buf[:size])
	if err != nil {
		e.fetchPool.Put(buf)
		return nil, fmt.Errorf("engine: restore subgroup %d: %w", sgID, err)
	}
	if id != sgID || n != sg.Len() {
		e.fetchPool.Put(buf)
		return nil, fmt.Errorf("engine: restore subgroup %d: object is subgroup %d with %d params", sgID, id, n)
	}

	if ent.Origin == "host" {
		// Adopt the checkpoint bytes zero-copy where possible: the
		// restored state aliases the fetched buffer exactly as a
		// training-time fetch would (adoptState consumes buf), so the
		// resumed run re-enters the allocation-free steady state
		// immediately.
		if err := e.adoptState(sg, buf, size); err != nil {
			return nil, fmt.Errorf("engine: restore subgroup %d: %w", sgID, err)
		}
		off := e.sgOffset[sgID]
		fp16.EncodeOn(e.kern, e.params16[off:off+int64(sg.Len())], sg.State.Params)
		e.loc[sgID] = locHost
		e.reclaimLiveKey(sgID, locHost)
		for _, v := range e.lru.TouchEvict(nil, sgID) {
			if err := e.flushSync(v, e.shard.Subgroups[v]); err != nil {
				return nil, fmt.Errorf("engine: restore eviction flush of subgroup %d: %w", v, err)
			}
		}
		return nil, nil
	}

	// Offloaded at checkpoint time: extract the master parameters for the
	// FP16 working copy straight from the serialized layout (bulk,
	// header-validated), then rewrite the object under its live key on
	// the currently planned tier.
	p32 := e.grad32[:sg.Len()]
	if err := sg.ReadParams(p32, buf[:size]); err != nil {
		e.fetchPool.Put(buf)
		return nil, fmt.Errorf("engine: restore subgroup %d: %w", sgID, err)
	}
	off := e.sgOffset[sgID]
	fp16.EncodeOn(e.kern, e.params16[off:off+int64(sg.Len())], p32)
	tier := e.plan.TierFor(sgID)
	op, err := e.writePooled(tier, sgID, buf, size)
	if err != nil {
		return nil, fmt.Errorf("engine: restore flush of subgroup %d: %w", sgID, err)
	}
	e.loc[sgID] = tier
	e.reclaimLiveKey(sgID, tier)
	return op, nil
}

// reclaimLiveKey deletes the subgroup's live-key object from every tier
// except keep (pass locHost to reclaim all): the pre-crash run may have
// left copies under a different placement, and restore re-establishes the
// one-object-one-tier invariant. It must not touch step-tagged snapshot
// keys — only the live key.
func (e *Engine) reclaimLiveKey(sgID, keep int) {
	for ti := range e.aios {
		if ti != keep {
			e.reclaim(aio.Flush, ti, e.key(sgID))
		}
	}
}

// readEntry reads a checkpoint entry's bytes: checkpoint-tier objects via
// the reader, pre-staged snapshots from the engine's own tier of the
// recorded name. Both paths apply the update phase's corrupt-retry
// discipline — a transient in-flight flip must not fail the restore.
func (e *Engine) readEntry(ctx context.Context, r *checkpoint.Reader, ent checkpoint.Entry, dst []byte) error {
	if ent.Tier == "" {
		err := r.ReadObject(ctx, ent.Key, dst)
		for n := 0; err != nil && errors.Is(err, tiercodec.ErrCorrupt) && n < e.cfg.CorruptRetries; n++ {
			e.corruptRetries.Add(1)
			e.clk.Sleep(retryBackoff.Delay(n))
			err = r.ReadObject(ctx, ent.Key, dst)
		}
		return err
	}
	for i, name := range e.names {
		if name == ent.Tier {
			return e.readSyncRetry(i, ent.Key, dst)
		}
	}
	return fmt.Errorf("manifest references tier %q, which this engine does not have", ent.Tier)
}
