package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/datastates/mlpoffload/internal/aio"
	"github.com/datastates/mlpoffload/internal/clock"
	"github.com/datastates/mlpoffload/internal/f32view"
	"github.com/datastates/mlpoffload/internal/fp16"
	"github.com/datastates/mlpoffload/internal/hostcache"
	"github.com/datastates/mlpoffload/internal/kernpool"
	"github.com/datastates/mlpoffload/internal/metrics"
	"github.com/datastates/mlpoffload/internal/optim"
	"github.com/datastates/mlpoffload/internal/placement"
	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/subgroup"
	"github.com/datastates/mlpoffload/internal/tiercodec"
	"github.com/datastates/mlpoffload/internal/wire"
)

// locHost marks a subgroup whose FP32 state is resident in host memory.
const locHost = -1

const (
	// ioWorkers is each tier's async I/O parallelism (aio.Config.Workers).
	ioWorkers = 2
	// migrators is the number of live-migration workers an adaptive
	// engine runs, each staging one subgroup at a time through the
	// migration pool — the bound on migration memory and concurrency.
	migrators = 2
)

// retryBackoff paces corrupt re-reads (awaitRead, Restore): the same
// clock-driven exponential policy (internal/wire) the elastic transport
// uses, so a burst of transient corruption backs off instead of
// hammering the tier with immediate re-reads.
var retryBackoff = wire.Backoff{Base: time.Millisecond, Max: 20 * time.Millisecond, Factor: 2}

// Engine is one worker's offloading runtime.
type Engine struct {
	cfg   Config
	clk   clock.Clock
	shard *subgroup.Shard
	aios  []*aio.Engine
	names []string

	est  *placement.Estimator
	plan placement.Plan

	lru *hostcache.LRU
	// loc is the *actual* backing location of each subgroup (locHost or a
	// tier index) — reality, where plan is intent. The live migrator's job
	// is to converge loc onto plan. Guarded by cacheMu wherever it can
	// race the migrator; plain reads are safe only in code that runs with
	// migrations quiesced (after drain) or for pinned subgroups.
	loc []int
	// stat are the tiers as configured, below the engine's own codec
	// wrapping: Size there is a metadata probe, where a codec tier must
	// read the whole object to report its raw length.
	stat []storage.Tier
	// gradLoc is the tier each subgroup's FP32 gradient object was written
	// to during the latest backward pass (-1 = none yet). Gradients are
	// per-iteration transients, so they are never migrated; fetches read
	// them from where backward put them even if the state object moved.
	gradLoc []int
	// staleTier is the tier still holding a host-resident subgroup's
	// now-stale state object from before its fetch (-1 = none). When the
	// subgroup is later evicted to a *different* tier, the stale source is
	// reclaimed — the same discipline the migrator follows, so an
	// offloaded subgroup's object lives on exactly one tier. Guarded by
	// cacheMu.
	staleTier []int

	fetchPool *hostcache.BufferPool
	flushPool *hostcache.BufferPool
	gradPool  *hostcache.BufferPool
	// prefetchDepth is the resolved Config.prefetchDepth. fetchSem holds
	// the in-flight fetches to it: the buffer pools are sized generously
	// to avoid pipeline deadlocks, so they cannot double as the fetch
	// bound.
	prefetchDepth int
	fetchSem      chan struct{}

	// kern is the engine-wide kernel worker pool (KernelWorkers > 1):
	// the Adam update and the FP16/BF16 bulk codecs fan their fixed-size
	// chunks across it instead of spawning goroutines per call. nil runs
	// every kernel serially on the calling goroutine.
	kern *kernpool.Pool

	// params16 is the FP16 working copy of the model (the GPU-resident
	// parameters driving forward/backward).
	params16 []fp16.Bits
	// sgOffset[i] is the global parameter offset of subgroup i.
	sgOffset []int64

	grad32   []float32 // backward scratch
	fullGrad []float32 // whole-shard gradient buffer (BatchGrad mode)

	step  int // optimizer step (1-based at first update)
	phase int // update phases completed

	pendingFlush []*aio.Op
	pendingGrads []*aio.Op
	flushWG      sync.WaitGroup
	mu           sync.Mutex // guards pendingFlush and the async-stats bookkeeping
	// asyncFlushStats accumulates *write* metrics (bytes, transfer time)
	// from asynchronous eviction flushes as they complete, plus the
	// per-priority-class breakdown of every asynchronous op (flushes and
	// migrations). An op still in flight when updatePhase folds the
	// accumulator is attributed to the next iteration's fold —
	// per-iteration totals are approximate at the boundary, while the
	// series total stays exact.
	asyncFlushStats struct {
		bytes float64 // raw bytes flushed
		wire  float64 // device-level bytes (encoded under a codec tier)
		secs  float64
		class map[string]metrics.ClassIO
	}

	// One ordering rule per object. Every tier op on a subgroup's state
	// key — fetch, eviction write, stale-tier delete, migration read,
	// write and source delete — is submitted while the subgroup is held by
	// exactly one party: pinned by the update pipeline (issuer to
	// committer), or marked in held by the committer (a victim, until its
	// eviction write and stale-tier delete are queued) or by the migrator
	// (from claiming the subgroup until its source delete is queued).
	// Restore runs with the engine quiesced, which holds everything.
	// Holders take turns under cacheMu and submit in program order, and
	// aio executes the ops on one key of one tier in submission order
	// (package aio, "Same-key order") — so on every tier the object sees
	// its ops in the order the holders took their turns, and nobody waits
	// for an op to land merely to order the next one behind it. Waits
	// remain only where data or an error is needed: a fetch before its
	// update, a migration copy before loc flips, flushes at the phase
	// barrier (pendingFlush, which surfaces write errors).
	//
	// cacheMu serializes the compound residency transitions: {wait out a
	// hold, pin, read loc} in the issuer, {set loc, unpin, touch, pick and
	// hold victims} in the committer, and {check pin and hold, hold, flip
	// loc} in the migrator. loc, lru, plan and held must change together
	// or the issuer could classify a subgroup as a cache hit while the
	// committer is evicting it (or fetch from a tier the migrator is
	// abandoning). heldCond (on cacheMu) signals a hold's release.
	cacheMu  sync.Mutex
	held     []bool
	heldCond *sync.Cond
	// Migration queue state (see migrate.go). migMu guards the queue and
	// in-flight count; migCond signals enqueue/completion/close.
	migMu       sync.Mutex
	migCond     *sync.Cond
	migQueued   map[int]bool
	migOrder    []int
	migInflight int
	migClosed   bool
	migWG       sync.WaitGroup
	migPool     *hostcache.BufferPool
	migStats    migStatsCell

	series metrics.Series
	closed bool

	// corruptRetries counts update-phase fetches re-read after a
	// tiercodec.ErrCorrupt (transient corruption absorbed by retry).
	corruptRetries atomic.Int64

	// Mixed-precision safety state.
	scaler       *optim.LossScaler
	skippedSteps int64
	partialNorms []float64
}

// New constructs an engine and offloads its initial optimizer state: the
// shard is created, the initial placement computed, and every subgroup's
// initial object — InitParams as master parameters, zero moments —
// written to its planned tier. The objects stream through the fetch
// pool, so host memory never holds the shard's FP32 state (see
// initialOffload). New returns once every write has landed; on failure
// it closes the engine.
func New(cfg Config) (*Engine, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.initialOffload(); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// newEngine constructs an engine whose subgroups have no stored object
// yet: each needs its initial offload (New) or a Restore (NewRestored)
// before the engine trains.
func newEngine(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Private copy of the tier slice: codec wrapping below must never
	// mutate the caller's TierSpec backing array.
	cfg.Tiers = append([]TierSpec(nil), cfg.Tiers...)
	stat := make([]storage.Tier, len(cfg.Tiers))
	for i, t := range cfg.Tiers {
		stat[i] = t.Tier
		if !t.Codec.Enabled() {
			continue
		}
		ct, err := tiercodec.New(t.Tier, t.Codec)
		if err != nil {
			return nil, fmt.Errorf("engine: tier %d (%s) codec: %w", i, t.Tier.Name(), err)
		}
		// The wrapped handle replaces the raw one for every engine path —
		// aio submissions, checkpoint snapshot copies, restore — so the
		// tier's objects are uniformly encoded.
		cfg.Tiers[i].Tier = ct
	}
	e := &Engine{cfg: cfg, clk: clock.Or(cfg.Clock), stat: stat, prefetchDepth: cfg.prefetchDepth()}
	if cfg.KernelWorkers > 1 {
		e.kern = kernpool.New(cfg.KernelWorkers)
	}
	e.shard = subgroup.NewShard(cfg.Rank, cfg.Params, cfg.SubgroupParams)
	m := len(e.shard.Subgroups)

	maxLen := e.shard.MaxSubgroupLen()
	stateBuf := subgroup.StateBytes(maxLen)
	// inflight bounds fetches issued ahead of the update workers; the grad
	// pool holds UpdateWorkers extra buffers so a worker's synchronous
	// gradient read can never deadlock against queued prefetches. Every
	// pool is lazy — a buffer is materialized only when training cycles
	// it — so the grad pool costs nothing in SkipGradFlush mode, which
	// never touches it, and a cache sized "whole shard fits" does not
	// preallocate the shard.
	inflight := e.prefetchDepth + cfg.UpdateWorkers
	// The fetch pool also backs the zero-copy states of host-resident
	// subgroups (a fetched buffer is adopted in place and returned only
	// when its eviction flush lands), so its quota covers the in-flight
	// window plus the largest possible resident set. The quota replaces —
	// not adds to — the per-fetch State allocations of the copying path:
	// resident state used to be heap-allocated anyway.
	resident := min(cfg.HostCacheSlots, m)
	e.fetchPool = hostcache.NewBufferPool(inflight+resident+2, stateBuf)
	// Only the copying fallback (a state that could not alias its fetched
	// buffer) marshals through the flush pool.
	e.flushPool = hostcache.NewBufferPool(2, stateBuf)
	e.gradPool = hostcache.NewBufferPool(inflight+cfg.UpdateWorkers+1, 4*maxLen)
	e.fetchSem = make(chan struct{}, e.prefetchDepth)

	e.names = make([]string, len(cfg.Tiers))
	e.est = placement.NewEstimator(0.5)
	for i, t := range cfg.Tiers {
		e.names[i] = t.Tier.Name()
		e.est.Seed(t.Tier.Name(), t.ReadBW, t.WriteBW)
		e.aios = append(e.aios, aio.New(t.Tier, aio.Config{
			Workers:    ioWorkers,
			QueueDepth: 4 * e.prefetchDepth,
			Locks:      cfg.Locks,
			Clock:      e.clk,
		}))
	}
	e.plan = placement.NewPlan(m, e.bandwidths())

	e.lru = hostcache.NewLRU(cfg.HostCacheSlots)
	e.loc = make([]int, m)
	e.gradLoc = make([]int, m)
	e.staleTier = make([]int, m)
	for i := range e.gradLoc {
		e.gradLoc[i] = -1
		e.staleTier[i] = -1
	}
	e.held = make([]bool, m)
	e.heldCond = sync.NewCond(&e.cacheMu)
	e.migQueued = make(map[int]bool)
	e.migStats.orphans = make(map[string]struct{})
	e.migCond = sync.NewCond(&e.migMu)
	if cfg.AdaptivePlacement {
		e.migPool = hostcache.NewBufferPool(migrators, stateBuf)
		for i := 0; i < migrators; i++ {
			e.migWG.Add(1)
			go e.migrator()
		}
	}
	e.params16 = make([]fp16.Bits, cfg.Params)
	e.sgOffset = make([]int64, m)
	e.grad32 = make([]float32, maxLen)
	if cfg.BatchGrad != nil {
		e.fullGrad = make([]float32, cfg.Params)
	}
	var off int64
	for i, sg := range e.shard.Subgroups {
		e.sgOffset[i] = off
		off += int64(sg.Len())
	}
	if cfg.LossScaling {
		e.scaler = optim.NewLossScaler()
	}
	e.partialNorms = make([]float64, m)
	e.series.Warmup = 2
	return e, nil
}

// initialOffload writes every subgroup's initial object to its planned
// tier (the paper's initialization step) without building the shard in
// host memory. Subgroup by subgroup, the master parameters are generated
// into the grad32 scratch, the FP16 working copy is encoded from them,
// and the object is serialized into a fetch-pool buffer that an
// asynchronous Flush-class write then owns until it lands. Both tiers
// fill at once, and the pool quota bounds the objects in flight. On
// success every write has landed; on failure the writes still in flight
// are waited by the Close that New runs (their buffer returns ride
// flushWG).
func (e *Engine) initialOffload() error {
	var writes []*aio.Op
	for i, sg := range e.shard.Subgroups {
		n := sg.Len()
		off := e.sgOffset[i]
		p := e.grad32[:n]
		if init := e.cfg.InitParams; init != nil {
			for j := range p {
				p[j] = init(off + int64(j))
			}
		} else {
			clear(p)
		}
		fp16.EncodeOn(e.kern, e.params16[off:off+int64(n)], p)
		buf := e.fetchPool.Get()
		size, err := sg.MarshalInit(buf, p)
		if err != nil {
			e.fetchPool.Put(buf)
			return fmt.Errorf("engine: initial offload of subgroup %d: %w", i, err)
		}
		tier := e.plan.TierFor(i)
		op, err := e.writePooled(tier, i, buf, size)
		if err != nil {
			return fmt.Errorf("engine: initial offload of subgroup %d: %w", i, err)
		}
		e.loc[i] = tier
		writes = append(writes, op)
	}
	var first error
	for i, op := range writes {
		if err := op.Wait(); err != nil && first == nil {
			first = fmt.Errorf("engine: initial offload of subgroup %d: %w", i, err)
		}
	}
	return first
}

// writePooled submits buf[:size], a fetch-pool buffer holding subgroup
// i's serialized state, as an asynchronous Flush-class write of i's live
// key to tier. The write owns buf from here: it returns to the fetch pool
// when the write lands, also when submission fails. The caller must wait
// the returned op for its error.
func (e *Engine) writePooled(tier, i int, buf []byte, size int) (*aio.Op, error) {
	op, err := e.aios[tier].SubmitWriteClass(aio.Flush, e.key(i), buf[:size])
	if err != nil {
		e.fetchPool.Put(buf)
		return nil, err
	}
	e.flushWG.Add(1)
	go func() {
		defer e.flushWG.Done()
		//mlpvet:allow aioop completion only gates the buffer return; the op is returned and the caller collects the error
		_ = op.Wait()
		e.fetchPool.Put(buf)
	}()
	return op, nil
}

// waitOps waits every op and returns the first failure.
func waitOps(ops []*aio.Op) error {
	var first error
	for _, op := range ops {
		if err := op.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// bandwidths materializes the estimator's view of the tiers.
func (e *Engine) bandwidths() []placement.TierBandwidth {
	return e.est.Bandwidths(e.names, 1)
}

// Subgroups returns the shard's subgroup count.
func (e *Engine) Subgroups() int { return len(e.shard.Subgroups) }

// TierHandle returns the engine's handle for the named tier — the
// codec-wrapped decorator when TierSpec.Codec is enabled, the configured
// tier otherwise — or nil for unknown names. Checkpoint tooling
// (Reader.Verify, Remove) must resolve manifest tier names through it so
// size checks and reads cross the same middleware the engine's own
// traffic does; Delete/Keys-only callers may keep raw handles.
func (e *Engine) TierHandle(name string) storage.Tier {
	for i, n := range e.names {
		if n == name {
			return e.cfg.Tiers[i].Tier
		}
	}
	return nil
}

// Plan returns the current placement plan.
func (e *Engine) Plan() placement.Plan {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	return e.plan
}

// Series returns the recorded iteration metrics.
func (e *Engine) Series() *metrics.Series { return &e.series }

// Params16 returns the FP16 working copy (read-only use by callers).
func (e *Engine) Params16() []fp16.Bits { return e.params16 }

// key returns the optimizer-state storage key for subgroup i.
func (e *Engine) key(i int) string { return subgroup.Key(e.cfg.Rank, i) }

// gradKey returns the FP32-gradient object key for subgroup i (baseline).
func (e *Engine) gradKey(i int) string {
	return fmt.Sprintf("rank%03d-sg%05d.grad", e.cfg.Rank, i)
}

// release ends the committer's or the migrator's hold on a subgroup.
func (e *Engine) release(sg int) {
	e.cacheMu.Lock()
	e.held[sg] = false
	e.heldCond.Broadcast()
	e.cacheMu.Unlock()
}

// reclaim deletes a stale object in the background. Same-key order keeps
// the delete from ever removing a later write of the key, so nothing
// waits for it except drain, and a failure only orphans bytes: it is
// counted, never surfaced.
func (e *Engine) reclaim(c aio.Class, tier int, key string) {
	op, err := e.aios[tier].SubmitDelete(c, key)
	if err != nil {
		e.countOrphan(tier, key)
		return
	}
	e.flushWG.Add(1)
	go func() {
		defer e.flushWG.Done()
		if op.Wait() != nil {
			e.countOrphan(tier, key)
		}
	}()
}

// IntegrityRetries reports how many update-phase fetches were re-read
// after failing integrity validation (tiercodec.ErrCorrupt) — transient
// corruption the retry path absorbed.
func (e *Engine) IntegrityRetries() int64 { return e.corruptRetries.Load() }

// awaitRead waits for a submitted read, re-reading on integrity failure:
// a fetch that completed with tiercodec.ErrCorrupt is resubmitted at
// DemandFetch priority up to CorruptRetries times, paced by
// retryBackoff on the engine clock (immediate re-reads hammer a
// tier that is momentarily flaky; the exponential pause is the same
// discipline network retries use). In-flight corruption (a flaky
// transfer) re-reads clean from the intact stored object; corruption at
// rest keeps failing and the final ErrCorrupt propagates — the caller
// fails cleanly, never consuming garbage. The returned op is the one
// that completed last (its timing/wire accounting is the fetch's true
// cost); it equals op when no retry happened.
func (e *Engine) awaitRead(tier int, op *aio.Op, key string, dst []byte) (*aio.Op, error) {
	err := op.Wait()
	for r := 0; err != nil && errors.Is(err, tiercodec.ErrCorrupt) && r < e.cfg.CorruptRetries; r++ {
		e.corruptRetries.Add(1)
		e.clk.Sleep(retryBackoff.Delay(r))
		rop, rerr := e.aios[tier].SubmitReadClass(aio.DemandFetch, key, dst)
		if rerr != nil {
			return op, err // cannot resubmit; surface the corruption
		}
		op, err = rop, rop.Wait()
	}
	return op, err
}

// readSyncRetry reads key into dst synchronously at DemandFetch
// priority with the awaitRead corrupt-retry discipline — the one
// synchronous read path every cold-path reader (gather, checkpoint
// staging fetch, restore) shares.
func (e *Engine) readSyncRetry(tier int, key string, dst []byte) error {
	op, err := e.aios[tier].SubmitReadClass(aio.DemandFetch, key, dst)
	if err != nil {
		return err
	}
	_, err = e.awaitRead(tier, op, key, dst)
	return err
}

// flushSync serializes subgroup i's state and writes it synchronously,
// releasing the in-memory state: Restore's evictions of host-cache
// overflow. A state aliasing its fetched buffer (sg.Backing) is
// already serialized — the buffer is written as-is and returned to the
// fetch pool, no marshal pass at all.
func (e *Engine) flushSync(i int, sg *subgroup.Subgroup) error {
	tier := e.plan.TierFor(i)
	if sg.Backing != nil {
		n := subgroup.StateBytes(sg.Len())
		backing := sg.Backing
		if err := e.aios[tier].WriteSync(e.key(i), backing[:n]); err != nil {
			return err
		}
		sg.State = nil
		sg.Backing = nil
		e.fetchPool.Put(backing)
		e.loc[i] = tier
		return nil
	}
	buf := e.flushPool.Get()
	n, err := sg.Marshal(buf, false)
	if err != nil {
		e.flushPool.Put(buf)
		return err
	}
	err = e.aios[tier].WriteSync(e.key(i), buf[:n])
	e.flushPool.Put(buf)
	if err != nil {
		return err
	}
	sg.State = nil
	e.loc[i] = tier
	return nil
}

// Forward runs the forward pass. With the model held as the FP16 working
// copy, the synthetic forward is a full sweep over the parameters (the
// cost stands in for activation computation; the paper's forward is
// likewise negligible next to the update phase).
func (e *Engine) forward() {
	var acc float32
	for _, h := range e.params16 {
		acc += float32(h & 1)
	}
	_ = acc
}

// backward generates this iteration's synthetic gradients subgroup by
// subgroup, accumulating into the host FP16 buffers, and — on the baseline
// path — upscales and flushes FP32 gradients to storage.
func (e *Engine) backward(iter int, accumStep int, lastAccum bool) error {
	if e.cfg.BatchGrad != nil {
		// Real-model path: one backward pass computes the whole shard's
		// gradients from the FP16 working copy.
		if err := e.cfg.BatchGrad(iter, e.params16, e.fullGrad); err != nil {
			return fmt.Errorf("engine: batch gradient: %w", err)
		}
	}
	for i, sg := range e.shard.Subgroups {
		n := sg.Len()
		off := e.sgOffset[i]
		g32 := e.grad32[:n]
		if e.cfg.BatchGrad != nil {
			copy(g32, e.fullGrad[off:off+int64(n)])
		} else {
			for j := 0; j < n; j++ {
				p := fp16.ToFloat32(e.params16[off+int64(j)])
				g32[j] = e.cfg.Grad(iter, off+int64(j), p)
			}
		}
		if accumStep == 0 {
			fp16.EncodeOn(e.kern, sg.Grads16, g32)
		} else {
			// Accumulate: widen current buffer, add, re-narrow.
			for j := 0; j < n; j++ {
				g32[j] += fp16.ToFloat32(sg.Grads16[j])
			}
			fp16.EncodeOn(e.kern, sg.Grads16, g32)
		}
		if lastAccum && e.cfg.ClipNorm > 0 {
			// Partial L2 norm of the rounded FP16 values actually used by
			// the update; combined globally before clipping.
			var sum float64
			for _, h := range sg.Grads16 {
				v := float64(fp16.ToFloat32(h))
				sum += v * v
			}
			e.partialNorms[i] = math.Sqrt(sum)
		}
		if !e.cfg.SkipGradFlush && lastAccum {
			// Baseline: upscale the FP16 accumulation buffer to FP32 and
			// flush it. Upscaling from Grads16 (not the wider scratch)
			// keeps both gradient paths numerically identical — the
			// correctness argument for delayed conversion.
			fp16.DecodeOn(e.kern, g32, sg.Grads16)
			gbuf := e.gradPool.Get()
			wide := gbuf[:4*n]
			encodeF32(wide, g32)
			// loc can be flipped concurrently by the live migrator; the
			// gradient co-locates with wherever the state is *now*, and
			// gradLoc records that so the update-phase fetch follows the
			// gradient even if the state object migrates again before it.
			e.cacheMu.Lock()
			tier := e.loc[i]
			if tier == locHost {
				tier = e.plan.TierFor(i)
			}
			e.cacheMu.Unlock()
			op, err := e.aios[tier].SubmitWriteClass(aio.Flush, e.gradKey(i), wide)
			if err != nil {
				e.gradPool.Put(gbuf)
				return err
			}
			if old := e.gradLoc[i]; old >= 0 && old != tier {
				// The previous iteration's gradient object lives on another
				// tier (the state migrated since): reclaim it so migration
				// churn cannot accumulate orphaned grad objects.
				e.reclaim(aio.Flush, old, e.gradKey(i))
			}
			e.gradLoc[i] = tier
			e.pendingGrads = append(e.pendingGrads, op)
			buf := gbuf
			e.flushWG.Add(1)
			go func() {
				defer e.flushWG.Done()
				//mlpvet:allow aioop completion only gates the buffer return; the op sits on pendingGrads and its error is collected at the phase barrier
				_ = op.Wait()
				e.gradPool.Put(buf)
			}()
		}
	}
	return nil
}

// encodeF32 moves an FP32 payload through the f32view bulk kernel: a
// single memmove on aligned little-endian buffers, an 8-wide unrolled
// conversion otherwise.
func encodeF32(dst []byte, src []float32) { f32view.Encode(dst, src) }

// TrainIteration runs one full iteration: forward and backward passes
// (GradAccumSteps of each) followed by the update phase, recording a
// metrics.Iteration.
func (e *Engine) TrainIteration(iter int) (metrics.Iteration, error) {
	if e.closed {
		return metrics.Iteration{}, fmt.Errorf("engine: closed")
	}
	var it metrics.Iteration
	var sw metrics.Stopwatch

	sw.StartOn(e.clk)
	for a := 0; a < e.cfg.GradAccumSteps; a++ {
		e.forward()
	}
	it.Phases.Forward = sw.Lap()

	for a := 0; a < e.cfg.GradAccumSteps; a++ {
		if err := e.backward(iter, a, a == e.cfg.GradAccumSteps-1); err != nil {
			return it, err
		}
	}
	it.Phases.Backward = sw.Lap()

	if err := e.updatePhase(&it); err != nil {
		return it, err
	}
	it.Phases.Update = sw.Lap()

	it.TierBytes = e.tierBytes()
	e.series.Append(it)
	return it, nil
}

// tierBytes reports where the optimizer state lives right now. The
// migrator may be flipping loc concurrently, so the snapshot is taken
// under cacheMu.
func (e *Engine) tierBytes() map[string]float64 {
	out := make(map[string]float64, len(e.names)+1)
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	for i, sg := range e.shard.Subgroups {
		b := float64(subgroup.StateBytes(sg.Len()))
		if e.loc[i] == locHost {
			out["host"] += b
		} else {
			out[e.names[e.loc[i]]] += b
		}
	}
	return out
}

// GatherParams fetches the full FP32 master parameter vector (host-resident
// and offloaded subgroups alike) for verification. It does not disturb the
// cache: offloaded subgroups are read into temporary buffers.
func (e *Engine) GatherParams(dst []float32) error {
	if int64(len(dst)) != e.cfg.Params {
		return fmt.Errorf("engine: dst len %d != params %d", len(dst), e.cfg.Params)
	}
	// Lazy flushes must land — successfully — before we read tiers.
	if err := e.drain(); err != nil {
		return err
	}
	for i, sg := range e.shard.Subgroups {
		off := e.sgOffset[i]
		if e.loc[i] == locHost {
			copy(dst[off:], sg.State.Params)
			continue
		}
		size := subgroup.StateBytes(sg.Len())
		buf := e.fetchPool.Get()
		if err := e.readSyncRetry(e.loc[i], e.key(i), buf[:size]); err != nil {
			e.fetchPool.Put(buf)
			return err
		}
		// Header-validated bulk extraction of the Params section only —
		// no temporary subgroup, no M/V materialization.
		if err := sg.ReadParams(dst[off:off+int64(sg.Len())], buf[:size]); err != nil {
			e.fetchPool.Put(buf)
			return err
		}
		e.fetchPool.Put(buf)
	}
	return nil
}

// Drain waits for all outstanding asynchronous work, discarding errors.
func (e *Engine) Drain() { _ = e.quiesce() }

// drain quiesces the engine and then checks that every offloaded subgroup
// is where loc says — the barrier for callers about to read tier state
// (checkpoint, gather). They MUST use this form: draining clears the
// pending-op lists, so with the plain Drain a failed flush would never
// surface — the next updatePhase has nothing left to wait on — and the
// reader would see the previous, stale object under the live key.
func (e *Engine) drain() error {
	if err := e.quiesce(); err != nil {
		return err
	}
	return e.checkObjects()
}

// quiesce waits for all outstanding asynchronous work and reports the
// first failure it absorbed. It also quiesces the live migrator: every
// queued migration completes (or is abandoned) before it returns, so
// callers see a stable loc[] and no in-flight cross-tier copies.
// Migration failures do not fail it — the source object stays
// authoritative and the next replan retries. Reclamation deletes are
// settled on return too: their completion goroutines ride flushWG.
func (e *Engine) quiesce() error {
	e.drainMigrations()
	err := e.settleWrites()
	e.flushWG.Wait()
	return err
}

// settleWrites waits every lazy eviction flush and gradient write still
// pending and reports the first failure — the phase barrier at which
// asynchronous write errors surface.
func (e *Engine) settleWrites() error {
	e.mu.Lock()
	flushes := e.pendingFlush
	e.pendingFlush = nil
	e.mu.Unlock()
	var firstErr error
	if err := waitOps(flushes); err != nil {
		firstErr = fmt.Errorf("engine: lazy flush failed: %w", err)
	}
	if err := waitOps(e.pendingGrads); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("engine: gradient flush failed: %w", err)
	}
	e.pendingGrads = nil
	return firstErr
}

// LostObjectError reports an offloaded subgroup whose state object is not
// on the tier the engine recorded for it: its optimizer state is gone,
// and only a Restore from a checkpoint recovers the run.
type LostObjectError struct {
	Subgroup int
	Tier     string
	Err      error // the tier's answer to the probe
}

func (e *LostObjectError) Error() string {
	return fmt.Sprintf("engine: subgroup %d: no state object on tier %s: %v", e.Subgroup, e.Tier, e.Err)
}

func (e *LostObjectError) Unwrap() error { return e.Err }

// checkObjects enforces the object-lifecycle invariant on a quiesced
// engine: every offloaded subgroup's state object is stored on its loc
// tier, so a reader fails here, naming the subgroup, instead of on some
// later fetch. A copy found on any other tier is an orphan — wasted
// bytes, counted, harmless.
func (e *Engine) checkObjects() error {
	ctx := context.Background()
	for sg, home := range e.loc {
		if home == locHost {
			continue // its tier copy, if any, is stale until eviction reclaims it
		}
		key := e.key(sg)
		for ti, t := range e.stat {
			_, err := t.Size(ctx, key)
			if ti == home && err != nil {
				return &LostObjectError{Subgroup: sg, Tier: e.names[ti], Err: err}
			}
			if ti != home && err == nil {
				e.countOrphan(ti, key)
			}
		}
	}
	return nil
}

// Close drains and shuts down the engine. Idempotent.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.Drain()
	e.stopMigrators()
	for _, a := range e.aios {
		a.Close()
	}
	if e.kern != nil {
		e.kern.Close()
	}
}
