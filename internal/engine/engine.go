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

// ioWorkers is each tier's async I/O parallelism (aio.Config.Workers).
const ioWorkers = 2

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
	// keys and gradKeys are each subgroup's optimizer-state and
	// FP32-gradient object names (see key, gradKey).
	keys, gradKeys []string

	est  *placement.Estimator
	plan placement.Plan

	lru *hostcache.LRU
	// loc is the *actual* backing location of each subgroup (locHost or a
	// tier index) — reality, where plan is intent. An eviction writes to
	// the plan's tier, so loc converges onto plan as the update phase
	// flushes (MisplacedSubgroups). Guarded by cacheMu wherever it can
	// race the update pipeline; plain reads are safe only in code that
	// runs with the engine quiesced (after drain) or for pinned subgroups.
	loc []int
	// stat are the tiers as configured, below the engine's own codec
	// wrapping: Size there is a metadata probe, where a codec tier must
	// read the whole object to report its raw length.
	stat []storage.Tier
	// gradLoc is the tier each subgroup's FP32 gradient object was written
	// to during the latest backward pass (-1 = none yet). Gradients are
	// per-iteration transients: fetches read them from where backward put
	// them, whatever tier the state object is on.
	gradLoc []int
	// staleTier is the tier still holding a host-resident subgroup's
	// now-stale state object from before its fetch (-1 = none). When the
	// subgroup is later evicted to a *different* tier, the stale source is
	// reclaimed, so an offloaded subgroup's object lives on exactly one
	// tier. Guarded by cacheMu.
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
	// the Adam update and the FP16 bulk codecs fan their fixed-size
	// chunks across it instead of spawning goroutines per call. nil runs
	// every kernel serially on the calling goroutine.
	kern *kernpool.Pool

	// params16 is the FP16 working copy of the model (the GPU-resident
	// parameters driving forward/backward).
	params16 []fp16.Bits
	// sgOffset[i] is the global parameter offset of subgroup i.
	sgOffset []int64

	grad32   []float32 // one subgroup's FP32 scratch (Grad hook, setup, restore)
	fullGrad []float32 // whole-shard gradient buffer (BatchGrad mode)

	step  int // optimizer step (1-based at first update)
	phase int // update phases completed

	pendingFlush []*aio.Op
	pendingGrads []*aio.Op
	mu           sync.Mutex // guards pendingFlush
	// done holds each tier's completers (aio.Completer): what the engine
	// does when a background write or delete lands, run by the aio
	// worker that executed it. A drained aio engine has run them all.
	done []tierDone
	// recs are the update pipeline's reusable records.
	recs phaseRecs
	// ioBase holds each tier's aio counters as of the previous foldIO:
	// the zero point of the next iteration's I/O.
	ioBase []ioCounters

	// One ordering rule per object. Every tier op on a subgroup's state
	// key — fetch, eviction write, stale-tier delete — is submitted while
	// the subgroup is held by exactly one party: pinned by the update
	// pipeline (issuer to committer), or marked in held by the committer
	// (a victim, until its eviction write and stale-tier delete are
	// queued). Restore runs with the engine quiesced, which holds
	// everything.
	// Holders take turns under cacheMu and submit in program order, and
	// aio executes the ops on one key of one tier in submission order
	// (package aio, "Same-key order") — so on every tier the object sees
	// its ops in the order the holders took their turns, and nobody waits
	// for an op to land merely to order the next one behind it. Waits
	// remain only where data or an error is needed: a fetch before its
	// update, flushes at the phase barrier (pendingFlush, which surfaces
	// write errors).
	//
	// cacheMu serializes the compound residency transitions: {wait out a
	// hold, pin, read loc} in the issuer and {set loc, unpin, touch, pick
	// and hold victims} in the committer. loc, lru, plan and held must
	// change together or the issuer could classify a subgroup as a cache
	// hit while the committer is evicting it. heldCond (on cacheMu)
	// signals a hold's release.
	cacheMu  sync.Mutex
	held     []bool
	heldCond *sync.Cond
	migStats migStatsCell

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
	e.foldIO(new(metrics.Iteration)) // the initial offload is in no iteration
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
	// Every submit and reclaim names its object; format the names once.
	e.keys = make([]string, m)
	e.gradKeys = make([]string, m)
	for i := range e.keys {
		e.keys[i] = subgroup.Key(cfg.Rank, i)
		e.gradKeys[i] = fmt.Sprintf("rank%03d-sg%05d.grad", cfg.Rank, i)
	}

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

	e.recs = newPhaseRecs(inflight, cfg.CoalesceFetches)
	e.names = make([]string, len(cfg.Tiers))
	e.ioBase = make([]ioCounters, len(cfg.Tiers))
	e.est = placement.NewEstimator(0.5)
	e.done = make([]tierDone, len(cfg.Tiers))
	for i, t := range cfg.Tiers {
		e.done[i] = tierDone{
			evictAdopted: opDone{e: e, tier: i, pool: e.fetchPool, observe: true},
			evictCopied:  opDone{e: e, tier: i, pool: e.flushPool, observe: true},
			staged:       opDone{e: e, tier: i, pool: e.fetchPool},
			grad:         opDone{e: e, tier: i, pool: e.gradPool},
			reclaim:      opDone{e: e, tier: i},
		}
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
	e.migStats.orphans = make(map[string]struct{})
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
// are waited by the Close that New runs (their completers return the
// buffers).
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
	op, err := e.aios[tier].SubmitWriteThen(aio.Flush, e.key(i), buf[:size], &e.done[tier].staged)
	if err != nil {
		e.fetchPool.Put(buf)
		return nil, err
	}
	return op, nil
}

// opDone is one kind of background write or delete's completion
// (aio.Completer), run by the aio worker as the op finishes, so nothing
// waits on the op for it: a write's buffer returns to its pool — an
// eviction write first feeds the estimator — and a failed delete counts
// as an orphan.
type opDone struct {
	e       *Engine
	tier    int
	pool    *hostcache.BufferPool // the written buffer's pool; nil for deletes
	observe bool
}

// tierDone is one tier's completers, built once by newEngine, so a
// background submission allocates nothing beyond its op.
type tierDone struct {
	// Eviction writes of a state adopted over its fetch-pool buffer, and
	// of one marshaled into a flush-pool buffer.
	evictAdopted, evictCopied opDone
	staged                    opDone // initial-offload and restore writes
	grad                      opDone // the baseline's FP32 gradient writes
	reclaim                   opDone // stale-copy deletes
}

// OpDone implements aio.Completer.
func (d *opDone) OpDone(op *aio.Op) {
	if d.pool == nil {
		if op.Err() != nil {
			d.e.countOrphan(d.tier, op.Key)
		}
		return
	}
	if d.observe && op.Err() == nil {
		d.e.observe(d.tier, op)
	}
	// Every write goes out from a prefix of a whole pool buffer.
	d.pool.Put(op.Buf()[:d.pool.BufSize()])
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
func (e *Engine) key(i int) string { return e.keys[i] }

// gradKey returns the FP32-gradient object key for subgroup i (baseline).
func (e *Engine) gradKey(i int) string { return e.gradKeys[i] }

// release ends the committer's hold on a subgroup.
func (e *Engine) release(sg int) {
	e.cacheMu.Lock()
	e.held[sg] = false
	e.heldCond.Broadcast()
	e.cacheMu.Unlock()
}

// reclaim deletes a stale object in the background. Same-key order keeps
// the delete from ever removing a later write of the key, so nothing
// waits for it except drain, and a failure only orphans bytes: it is
// counted, by the delete's completer, never surfaced.
func (e *Engine) reclaim(c aio.Class, tier int, key string) {
	//mlpvet:allow aioop the delete's completer accounts for it, and quiesce's idleIO waits it
	if _, err := e.aios[tier].SubmitDeleteThen(c, key, &e.done[tier].reclaim); err != nil {
		e.countOrphan(tier, key)
	}
}

// migStatsCell accumulates the counters MigrationStats reports.
type migStatsCell struct {
	mu      sync.Mutex
	moves   int64
	bytes   int64
	orphans map[string]struct{} // "tier/key" of every stale object left behind
}

// MigrationStats is a snapshot of the engine's object-move counters.
// Nothing copies objects between tiers in the background: a replan's
// moves happen at the eviction writes every update phase makes anyway.
type MigrationStats struct {
	// Moves counts evictions that wrote a subgroup to a tier other than
	// the one its pre-update object was fetched from — the moves replans
	// cause; Bytes is their payload.
	Moves int64
	Bytes int64
	// Abandoned is always 0: no move is ever started and then dropped.
	// Its one reader is bench/e2e's engine.migrations_abandoned.
	Abandoned int64
	// Orphans counts the distinct stale objects left on a tier: state and
	// gradient objects whose reclaiming delete failed, and live-key copies
	// a drain found on a tier other than the subgroup's own.
	Orphans int64
}

// MigrationStats returns a snapshot of the move and orphan counters.
func (e *Engine) MigrationStats() MigrationStats {
	e.migStats.mu.Lock()
	defer e.migStats.mu.Unlock()
	return MigrationStats{
		Moves:   e.migStats.moves,
		Bytes:   e.migStats.bytes,
		Orphans: int64(len(e.migStats.orphans)),
	}
}

// MisplacedSubgroups reports how many offloaded subgroups currently
// reside on a tier other than the one the plan assigns. Evictions write
// to the plan's tier, so at an iteration boundary these are the
// subgroups whose tier the last replan changed; the next update phase's
// evictions move them.
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

// countOrphan records a stale object left on a tier. The same object
// reported twice — its delete failed, then a drain found it — is one
// orphan.
func (e *Engine) countOrphan(tier int, key string) {
	e.migStats.mu.Lock()
	e.migStats.orphans[e.names[tier]+"/"+key] = struct{}{}
	e.migStats.mu.Unlock()
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
		var g32 []float32
		if e.cfg.BatchGrad != nil {
			// The subgroup's slice of the whole-shard buffer is used in
			// place: BatchGrad refills all of it on every call and
			// nothing reads it after this subgroup's pass.
			g32 = e.fullGrad[off : off+int64(n)]
		} else {
			g32 = e.grad32[:n]
			for j, h := range e.params16[off : off+int64(n)] {
				p, ok := fp16.ToFloat32Fast(h)
				if !ok {
					p = fp16.ToFloat32(h)
				}
				g32[j] = e.cfg.Grad(iter, off+int64(j), p)
			}
		}
		if accumStep > 0 {
			// Accumulate: widen the current buffer, add, re-narrow.
			fp16.DecodeAccumulate(g32, sg.Grads16)
		}
		fp16.EncodeOn(e.kern, sg.Grads16, g32)
		if lastAccum && e.cfg.ClipNorm > 0 {
			// Partial L2 norm of the rounded FP16 values actually used by
			// the update; combined globally before clipping.
			var sum float64
			for _, h := range sg.Grads16 {
				f, ok := fp16.ToFloat32Fast(h)
				if !ok {
					f = fp16.ToFloat32(h)
				}
				v := float64(f)
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
			// The gradient goes beside the state's current object, and
			// gradLoc records where, so the update-phase fetch reads it
			// from there.
			e.cacheMu.Lock()
			tier := e.loc[i]
			if tier == locHost {
				tier = e.plan.TierFor(i)
			}
			e.cacheMu.Unlock()
			op, err := e.aios[tier].SubmitWriteThen(aio.Flush, e.gradKey(i), wide, &e.done[tier].grad)
			if err != nil {
				e.gradPool.Put(gbuf)
				return err
			}
			if old := e.gradLoc[i]; old >= 0 && old != tier {
				// The previous iteration's gradient object lives on another
				// tier (the state moved since): reclaim it so replans
				// cannot accumulate orphaned grad objects.
				e.reclaim(aio.Flush, old, e.gradKey(i))
			}
			e.gradLoc[i] = tier
			// The write's completer returns gbuf; its error is collected
			// at the phase barrier.
			e.pendingGrads = append(e.pendingGrads, op)
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

	e.foldIO(&it)
	it.TierBytes = e.tierBytes()
	e.series.Append(it)
	return it, nil
}

// ioCounters is one aio engine's counters at an instant.
type ioCounters struct {
	total aio.Metrics
	class [aio.NumClasses]aio.ClassMetrics
}

// foldIO adds to it every op the engine's aio engines completed since the
// previous fold — fetches, flushes, gradient writes, checkpoint
// traffic and deletes alike — and makes now the next fold's
// zero point. It is the only writer of an Iteration's byte, time and
// ClassIO fields (see metrics.Iteration for the definition). An op still
// in flight lands in a later fold, so per-iteration values shift at the
// boundary while the series total stays exact.
func (e *Engine) foldIO(it *metrics.Iteration) {
	for i, a := range e.aios {
		now := ioCounters{a.Metrics(), a.PerClassMetrics()}
		cur, prev := now.total, e.ioBase[i].total
		it.BytesRead += float64(cur.BytesRead - prev.BytesRead)
		it.BytesWritten += float64(cur.BytesWritten - prev.BytesWritten)
		it.WireBytesRead += float64(cur.WireBytesRead - prev.WireBytesRead)
		it.WireBytesWritten += float64(cur.WireBytesWritten - prev.WireBytesWritten)
		it.ReadTime += (cur.ReadTime - prev.ReadTime).Seconds()
		it.WriteTime += (cur.WriteTime - prev.WriteTime).Seconds()
		for c, cm := range now.class {
			p := e.ioBase[i].class[c]
			if cm.Ops == p.Ops {
				continue
			}
			if it.ClassIO == nil {
				it.ClassIO = make(map[string]metrics.ClassIO)
			}
			k := aio.Class(c).String()
			it.ClassIO[k] = it.ClassIO[k].Add(metrics.ClassIO{
				Ops:        int(cm.Ops - p.Ops),
				Bytes:      float64(cm.Bytes - p.Bytes),
				WireBytes:  float64(cm.WireBytes - p.WireBytes),
				QueueDelay: (cm.QueueDelay - p.QueueDelay).Seconds(),
				Transfer:   (cm.Transfer - p.Transfer).Seconds(),
			})
		}
		e.ioBase[i] = now
	}
}

// observe feeds a completed transfer to the placement estimator. The
// estimator tracks *device* bandwidth, so it sees wire bytes: under
// compression the raw count would inflate the tier's apparent speed by
// the (data-dependent) ratio and destabilize the bandwidth-proportional
// split.
func (e *Engine) observe(tier int, op *aio.Op) {
	wire, secs := float64(op.WireBytes()), op.TransferTime().Seconds()
	if op.Kind == aio.Write {
		e.est.ObserveWrite(e.names[tier], wire, secs)
	} else {
		e.est.ObserveRead(e.names[tier], wire, secs)
	}
}

// tierBytes reports where the optimizer state lives right now, from a
// snapshot of loc taken under cacheMu.
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
// first failure it absorbed. Reclamation deletes are settled on return
// too: idleIO waits them and their completers.
func (e *Engine) quiesce() error {
	err := e.settleWrites()
	e.idleIO()
	return err
}

// idleIO waits until every aio engine of this engine is idle, which
// includes every completer of its ops having run.
func (e *Engine) idleIO() {
	for _, a := range e.aios {
		a.Drain()
	}
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
	// Both lists keep their arrays for the next phase.
	clear(flushes)
	e.mu.Lock()
	if e.pendingFlush == nil {
		e.pendingFlush = flushes[:0]
	}
	e.mu.Unlock()
	clear(e.pendingGrads)
	e.pendingGrads = e.pendingGrads[:0]
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
	for _, a := range e.aios {
		a.Close()
	}
	if e.kern != nil {
		e.kern.Close()
	}
}
