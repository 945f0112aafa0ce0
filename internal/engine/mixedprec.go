package engine

import (
	"context"
	"fmt"

	"github.com/datastates/mlpoffload/internal/aio"
	"github.com/datastates/mlpoffload/internal/checkpoint"
	"github.com/datastates/mlpoffload/internal/fp16"
	"github.com/datastates/mlpoffload/internal/optim"
	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/subgroup"
	"github.com/datastates/mlpoffload/internal/tiercodec"
)

// Mixed-precision safety machinery (loss scaling, global gradient-norm
// clipping) and checkpoint pre-staging integration.

// scalerCheck runs the dynamic loss-scaling overflow check over every
// subgroup's FP16 gradients. It returns false when the step must be
// skipped. Without LossScaling it always returns true.
func (e *Engine) scalerCheck() bool {
	if e.scaler == nil {
		return true
	}
	for _, sg := range e.shard.Subgroups {
		if optim.HasOverflow(sg.Grads16) {
			// One overflowing subgroup invalidates the whole step; let the
			// scaler back off exactly once for the step.
			e.scaler.Check(sg.Grads16)
			return false
		}
	}
	// No overflow anywhere: feed one clean observation.
	if len(e.shard.Subgroups) > 0 {
		e.scaler.Check(e.shard.Subgroups[0].Grads16)
	}
	return true
}

// Scaler exposes the loss scaler (nil when LossScaling is disabled).
func (e *Engine) Scaler() *optim.LossScaler { return e.scaler }

// SkippedSteps returns how many update phases were skipped by loss-scaling
// overflow checks.
func (e *Engine) SkippedSteps() int64 { return e.skippedSteps }

// computeClipFactor derives the global clip factor from the per-subgroup
// partial norms recorded during the backward pass. Returns 1 when clipping
// is disabled or the norm is within bounds.
func (e *Engine) computeClipFactor() float32 {
	if e.cfg.ClipNorm <= 0 {
		return 1
	}
	global := optim.GlobalGradNorm(e.partialNorms)
	if global <= e.cfg.ClipNorm || global == 0 {
		return 1
	}
	return float32(e.cfg.ClipNorm / global)
}

// applyClip scales one subgroup's gradient view in place by the global
// clip factor: the FP16 accumulation buffer on the delayed-conversion path,
// the fetched FP32 buffer on the baseline path.
func applyClip(sg *subgroup.Subgroup, factor float32, fp16Path bool) {
	if factor >= 1 {
		return
	}
	if fp16Path {
		for i, g := range sg.Grads16 {
			f, ok := fp16.ToFloat32Fast(g)
			if !ok {
				f = fp16.ToFloat32(g)
			}
			f *= factor
			h, ok := fp16.FromFloat32Fast(f)
			if !ok {
				h = fp16.FromFloat32(f)
			}
			sg.Grads16[i] = h
		}
		return
	}
	for i := range sg.Grads32 {
		sg.Grads32[i] *= factor
	}
}

// GradNorm returns the most recent global gradient norm (0 before the
// first backward pass or when clipping is disabled).
func (e *Engine) GradNorm() float64 {
	return optim.GlobalGradNorm(e.partialNorms)
}

// CheckpointLocations classifies every subgroup's current placement for
// checkpoint planning: subgroups already resident on a persistent tier are
// pre-staged and need no cross-tier checkpoint I/O (§3.3). Callers must
// have drained the engine (Engine.Checkpoint does): the manifest then
// records the exact placement, including subgroups a replan displaced
// that no eviction has moved yet, and Restore reproduces training
// bit-identically from it.
func (e *Engine) CheckpointLocations() []checkpoint.Location {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	out := make([]checkpoint.Location, len(e.shard.Subgroups))
	for i, sg := range e.shard.Subgroups {
		loc := checkpoint.Location{
			SubgroupID: i,
			Bytes:      int64(subgroup.StateBytes(sg.Len())),
		}
		if e.loc[i] == locHost {
			loc.TierName = "host"
		} else {
			loc.TierName = e.names[e.loc[i]]
			loc.Key = e.key(i)
			loc.Persistent = e.cfg.Tiers[e.loc[i]].Persistent
		}
		out[i] = loc
	}
	return out
}

// numerics captures the configuration knobs that determine training
// values (as opposed to performance); a checkpoint resumed under
// different numerics is rejected by Restore.
func (e *Engine) numerics() checkpoint.Numerics {
	return checkpoint.Numerics{
		Order:          e.cfg.Order.String(),
		SkipGradFlush:  e.cfg.SkipGradFlush,
		LossScaling:    e.cfg.LossScaling,
		GradAccumSteps: e.cfg.GradAccumSteps,
		ClipNorm:       e.cfg.ClipNorm,
		LR:             e.cfg.Hyper.LR,
		Beta1:          e.cfg.Hyper.Beta1,
		Beta2:          e.cfg.Hyper.Beta2,
		Eps:            e.cfg.Hyper.Eps,
		WeightDecay:    e.cfg.Hyper.WeightDecay,
	}
}

// Checkpoint writes a restorable checkpoint at the given step and commits
// its manifest. Three transfer streams overlap: step-tagged snapshot
// copies of the pre-staged subgroups on their own persistent tiers (so the
// next update phase cannot overwrite what the manifest references),
// asynchronous tier reads for the offloaded part of the ToFlush set, and
// the writer's checkpoint-tier writes. The manifest lands last — it is the
// commit record, and without it the checkpoint does not exist.
//
// Checkpoint must be called at an iteration boundary (no update phase in
// flight), like GatherParams.
func (e *Engine) Checkpoint(ctx context.Context, step int, w *checkpoint.Writer) (checkpoint.Manifest, error) {
	if e.closed {
		return checkpoint.Manifest{}, fmt.Errorf("engine: closed")
	}
	// One drain for the whole checkpoint (not one per subgroup): every
	// lazy eviction flush and gradient write lands before tier reads. A
	// failed flush fails the checkpoint — the live key still holds the
	// previous object (tier writes are atomic), and committing a manifest
	// over it would silently capture stale state.
	if err := e.drain(); err != nil {
		return checkpoint.Manifest{}, err
	}

	plan := checkpoint.BuildPlan(e.CheckpointLocations())
	prefix := w.Prefix()

	// The whole shard's serialized state cannot be staged at once — by
	// this engine's premise it exceeds host memory. sem bounds the live
	// checkpoint staging buffers across all three streams (snapshot
	// copies, flush fetches, in-flight checkpoint writes); a token is
	// held from buffer allocation until its last write lands. The buffers
	// are the engine's own fetch buffers: after the drain no fetch is in
	// flight and only the host-resident states hold one, so at least
	// prefetchDepth+UpdateWorkers+2 of the pool's quota sit idle — more
	// than the window — and a checkpoint stages in no memory of its own.
	window := e.prefetchDepth + 2
	sem := make(chan struct{}, window)
	unstage := func(buf []byte) {
		e.fetchPool.Put(buf[:cap(buf)])
		<-sem
	}

	// Snapshot stream: step-tagged same-tier copies of the pre-staged
	// subgroups, pipelined on a side goroutine while the writer flushes.
	// A tier that supports server-side copies (FileTier hard links,
	// MemTier aliases) versions the object with no data movement at all —
	// the §3.3 "for free" pre-staging; otherwise the bytes make a
	// same-tier round trip through the bounded staging window.
	var snapErr error
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		var writes []*aio.Op
		for _, l := range plan.PreStaged {
			tier := e.loc[l.SubgroupID]
			snapKey := checkpoint.SnapshotKey(prefix, step, l.SubgroupID)
			if copied, err := storage.TryCopy(ctx, e.cfg.Tiers[tier].Tier, l.Key, snapKey); copied {
				if err != nil {
					snapErr = fmt.Errorf("engine: checkpoint snapshot copy subgroup %d: %w", l.SubgroupID, err)
					break
				}
				continue
			}
			sem <- struct{}{}
			buf := e.fetchPool.Get()[:l.Bytes]
			rop, err := e.aios[tier].SubmitReadClass(aio.Checkpoint, l.Key, buf)
			if err == nil {
				// Corrupt-retry, as everywhere the engine reads state.
				_, err = e.awaitRead(tier, rop, l.Key, buf)
			}
			if err != nil {
				unstage(buf)
				snapErr = fmt.Errorf("engine: checkpoint snapshot read subgroup %d: %w", l.SubgroupID, err)
				break // fall through: already-submitted writes must be waited
			}
			wop, err := e.aios[tier].SubmitWriteClass(aio.Checkpoint, snapKey, buf)
			if err != nil {
				unstage(buf)
				snapErr = fmt.Errorf("engine: checkpoint snapshot write subgroup %d: %w", l.SubgroupID, err)
				break
			}
			writes = append(writes, wop)
			//mlpvet:allow aioop completion only gates the buffer return; the op is on writes and its error is collected below
			go func(op *aio.Op, buf []byte) { _ = op.Wait(); unstage(buf) }(wop, buf)
		}
		if err := waitOps(writes); err != nil && snapErr == nil {
			snapErr = fmt.Errorf("engine: checkpoint snapshot write: %w", err)
		}
	}()

	// Flush stream: an issuer keeps a bounded read-ahead of ToFlush
	// subgroups in front of the writer, so checkpoint writes overlap the
	// tier reads without ever staging more than the window. A resident
	// state that aliases its fetched buffer is already serialized: the
	// writer takes sg.Backing itself, with no copy and no token.
	type staged struct {
		sg   int
		op   *aio.Op // nil for host-resident subgroups
		tier int     // tier op reads from (corrupt-retry target)
		buf  []byte
		err  error
	}
	aliased := make(map[*byte]bool)
	for _, l := range plan.ToFlush {
		if sg := e.shard.Subgroups[l.SubgroupID]; e.loc[l.SubgroupID] == locHost && sg.Backing != nil {
			aliased[&sg.Backing[0]] = true
		}
	}
	release := func(buf []byte) {
		if !aliased[&buf[0]] {
			unstage(buf)
		}
	}
	stageCh := make(chan staged, len(plan.ToFlush))
	stop := make(chan struct{})
	go func() {
		defer close(stageCh)
		for _, l := range plan.ToFlush {
			id := l.SubgroupID
			sg := e.shard.Subgroups[id]
			if e.loc[id] == locHost && sg.Backing != nil {
				stageCh <- staged{sg: id, buf: sg.Backing[:l.Bytes]}
				continue
			}
			select {
			case sem <- struct{}{}:
			case <-stop:
				return
			}
			buf := e.fetchPool.Get()[:l.Bytes]
			if e.loc[id] == locHost {
				if _, err := sg.Marshal(buf, false); err != nil {
					unstage(buf)
					stageCh <- staged{sg: id, err: err}
					return
				}
				stageCh <- staged{sg: id, buf: buf}
				continue
			}
			tier := e.loc[id]
			op, err := e.aios[tier].SubmitReadClass(aio.Checkpoint, l.Key, buf)
			if err != nil {
				unstage(buf)
				stageCh <- staged{sg: id, err: err}
				return
			}
			stageCh <- staged{sg: id, op: op, tier: tier, buf: buf}
		}
	}()
	fetch := func(_ context.Context, sgID int) ([]byte, error) {
		s, ok := <-stageCh
		if !ok || s.sg != sgID {
			return nil, fmt.Errorf("engine: checkpoint staging desynchronized at subgroup %d", sgID)
		}
		if s.err != nil {
			return nil, s.err
		}
		if s.op != nil {
			if _, err := e.awaitRead(s.tier, s.op, e.key(s.sg), s.buf); err != nil {
				unstage(s.buf) // the writer never sees this buffer
				return nil, err
			}
		}
		return s.buf, nil
	}

	_, werr := w.Write(ctx, step, plan, fetch, release)
	// Abandon staging the writer never consumed (its loop stops at the
	// first error): stop the issuer, then wait the orphaned reads.
	close(stop)
	for s := range stageCh {
		if s.op != nil {
			//mlpvet:allow aioop abandoned staging read; waiting only quiesces the buffer before pooling
			_ = s.op.Wait()
		}
		if s.err == nil {
			release(s.buf)
		}
	}
	<-snapDone
	if werr != nil {
		return checkpoint.Manifest{}, werr
	}
	if snapErr != nil {
		return checkpoint.Manifest{}, snapErr
	}

	m := checkpoint.BuildManifest(step, plan, prefix)
	m.Rank = e.cfg.Rank
	m.Params = e.cfg.Params
	m.SubgroupParams = e.cfg.SubgroupParams
	m.Numerics = e.numerics()
	// Record the codec middleware active on every tier the manifest's
	// objects can live on, so a restore under a mismatched (codec vs
	// codec-less) configuration fails with a clear message up front.
	m.TierCodecs = make(map[string]string, len(e.cfg.Tiers)+1)
	for i, t := range e.cfg.Tiers {
		m.TierCodecs[e.names[i]] = tiercodec.Describe(t.Tier)
	}
	// The checkpoint tier may share a name with a training tier (e.g. a
	// writer handed the persistent tier's raw handle); the engine's
	// wrapped handle is the authoritative record for Restore's check, so
	// never overwrite it.
	if _, taken := m.TierCodecs[w.Tier().Name()]; !taken {
		m.TierCodecs[w.Tier().Name()] = tiercodec.Describe(w.Tier())
	}
	m.AdamStep = e.step
	m.Phase = e.phase
	m.SkippedSteps = e.skippedSteps
	if e.scaler != nil {
		st := e.scaler.State()
		m.Scaler = &st
	}
	if err := w.WriteManifest(m); err != nil {
		return checkpoint.Manifest{}, err
	}
	return m, nil
}
