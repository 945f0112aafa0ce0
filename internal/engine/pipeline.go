package engine

import (
	"context"
	"fmt"
	"sync"

	"github.com/datastates/mlpoffload/internal/aio"
	"github.com/datastates/mlpoffload/internal/f32view"
	"github.com/datastates/mlpoffload/internal/fp16"
	"github.com/datastates/mlpoffload/internal/hostcache"
	"github.com/datastates/mlpoffload/internal/metrics"
	"github.com/datastates/mlpoffload/internal/optim"
	"github.com/datastates/mlpoffload/internal/placement"
	"github.com/datastates/mlpoffload/internal/subgroup"
)

// The update phase runs as a three-stage pipeline (paper §3: the CPU-side
// Adam update is overlapped with multi-path tier traffic):
//
//	issuer    — walks the phase's subgroup order, classifies each subgroup
//	            as cache hit or miss, pins it, and keeps up to
//	            prefetchDepth+UpdateWorkers fetches/items in flight.
//	workers   — UpdateWorkers goroutines consume items, wait for their
//	            fetches, and run the Adam update + FP16 re-encode, so the
//	            update of subgroup k overlaps with tier reads for k+1..k+d.
//	committer — consumes items strictly in order: counts hits, misses
//	            and kernel time, unpins, touches the LRU, and lazily
//	            flushes the displaced victims, preserving the
//	            cache-friendly alternating-order residency semantics of
//	            the single-threaded engine.
//
// Errors propagate per subgroup: the first failure cancels the phase
// context; the issuer stops issuing and in-flight workers skip their
// update, release their staging buffers, and drain cleanly.

// pendingFetch tracks one in-flight subgroup fetch.
type pendingFetch struct {
	stateOp  *aio.Op
	stateBuf []byte
	gradOp   *aio.Op
	gradBuf  []byte
	tier     int
	gradTier int
	// co links members of one coalesced vectored fetch: they share
	// stateOp (the batch op) while keeping their own stateBuf, fetch
	// slot, and item. nil for plain single-object fetches.
	co *coalescedFetch
}

// coalescedFetch is the shared half of one vectored read-ahead batch:
// the aio op covering every member. The estimator sees the transfer
// exactly once (obs), at full size — it tracks device bandwidth, and
// the device made one pass.
type coalescedFetch struct {
	op  *aio.Op
	obs sync.Once
}

// updateItem carries one subgroup through the pipeline stages.
type updateItem struct {
	sgID    int
	hit     bool          // host-resident at issue time
	pf      *pendingFetch // nil on a hit
	err     error
	compute float64       // Adam kernel seconds, counted at commit
	done    chan struct{} // closed by the worker
}

// phaseRun is the shared state of one update phase's pipeline.
type phaseRun struct {
	ctx    context.Context
	cancel context.CancelFunc
	clip   float32

	mu  sync.Mutex
	err error // first failure; cancels the phase
}

func (p *phaseRun) fail(err error) {
	if err == nil {
		return
	}
	p.mu.Lock()
	if p.err == nil {
		p.err = err
		p.cancel()
	}
	p.mu.Unlock()
}

func (p *phaseRun) firstErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// updatePhase runs Algorithm 1 over all subgroups through the pipeline.
func (e *Engine) updatePhase(it *metrics.Iteration) error {
	m := len(e.shard.Subgroups)
	order := hostcache.UpdateOrder(e.cfg.Order, m, e.phase)
	if !e.scalerCheck() {
		// Dynamic loss scaling detected an overflow: skip the whole update
		// phase (the scale has been halved); subgroups stay where they are.
		e.skippedSteps++
		return nil
	}
	clip := e.computeClipFactor()
	e.step++

	// Previous phase's lazy flushes and this phase's gradient objects must
	// have landed — without error — before we fetch them back: same-key
	// order would run the fetch after a failed write just the same, and
	// hand the update a stale object.
	if err := e.settleWrites(); err != nil {
		return err
	}

	run := &phaseRun{clip: clip}
	run.ctx, run.cancel = context.WithCancel(context.Background())
	defer run.cancel()

	// window bounds items in flight (and therefore pinned subgroups);
	// workCh never blocks the issuer because its capacity matches.
	inflight := e.prefetchDepth + e.cfg.UpdateWorkers
	window := make(chan struct{}, inflight)
	workCh := make(chan *updateItem, inflight)
	orderCh := make(chan *updateItem, m)

	var workerWG sync.WaitGroup
	for w := 0; w < e.cfg.UpdateWorkers; w++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			e.updateWorker(run, workCh)
		}()
	}
	var commitWG sync.WaitGroup
	commitWG.Add(1)
	go func() {
		defer commitWG.Done()
		e.commitItems(run, it, window, orderCh)
	}()

	e.issueItems(run, order, window, workCh, orderCh)
	workerWG.Wait()
	commitWG.Wait()
	if err := run.firstErr(); err != nil {
		return err
	}

	e.phase++
	it.ParamsUpdated += e.shard.Params()

	// Adaptive replanning from observed bandwidths (§3.3). Replan moves
	// only the surplus of the tiers whose share shrank, and nothing copies
	// the displaced subgroups: every offloaded subgroup is fetched by the
	// next update phase, and its eviction writes it to the new plan's
	// tier and reclaims the old copy (flushEvicted).
	if e.cfg.AdaptivePlacement {
		// The update phase is e.plan's only writer, so it reads it unlocked.
		newPlan := placement.Replan(e.plan, e.bandwidths())
		e.cacheMu.Lock()
		e.plan = newPlan
		e.cacheMu.Unlock()
	}
	return nil
}

// issueItems is the issuer stage: it classifies and pins each subgroup in
// order, submits prefetch reads for misses, and hands items to the workers
// (via workCh) and the committer (via orderCh). It closes both channels
// when done or when the phase is cancelled.
//
// Read-ahead coalescing (CoalesceFetches > 1, SkipGradFlush mode):
// instead of one aio op per miss, the issuer detects runs of adjacent
// misses on the same tier and submits each run as one vectored read —
// one scheduling decision and one device pass for the run, split into
// per-member zero-copy buffer views. A run breaks on a cache hit, a
// tier change, or the batch cap. Members of an unflushed run
// hold window slots but no fetch slots, and the cap never exceeds
// prefetchDepth, so batch assembly cannot exhaust the window the
// committer needs to drain (inflight = prefetchDepth + UpdateWorkers).
func (e *Engine) issueItems(run *phaseRun, order []int, window chan struct{}, workCh, orderCh chan *updateItem) {
	defer close(workCh)
	defer close(orderCh)
	maxRun := e.cfg.CoalesceFetches
	if !e.cfg.SkipGradFlush {
		// Baseline mode interleaves per-subgroup gradient reads anyway;
		// runs would be length 1.
		maxRun = 1
	}
	var batch []*updateItem
	var batchTier int
	// flush submits the pending run (vectored for >= 2 members) and
	// emits its items downstream in commit order. Always called before
	// returning: batched items hold window slots and pins that only the
	// committer releases.
	flush := func() {
		if len(batch) == 0 {
			return
		}
		e.issueCoalesced(run, batch, batchTier)
		for _, item := range batch {
			orderCh <- item
			workCh <- item
		}
		batch = batch[:0]
	}
	for _, sgID := range order {
		if run.ctx.Err() != nil {
			flush()
			return
		}
		window <- struct{}{} // released by the committer
		item := &updateItem{sgID: sgID, done: make(chan struct{})}
		e.cacheMu.Lock()
		// Wait out a hold: the committer still queueing this subgroup's
		// eviction. Once it is released loc names the object's real home
		// and every op the holder submitted is ahead of our fetch on that
		// tier.
		for e.held[sgID] {
			e.heldCond.Wait()
		}
		//mlpvet:allow pinpair pinned for the whole fetch-update-commit pipeline; the committer unpins after flushEvicted
		e.lru.Pin(sgID)
		tier := e.loc[sgID]
		e.cacheMu.Unlock()
		if tier == locHost {
			item.hit = true // pinned, so it stays resident until commit
			flush()
			orderCh <- item
			workCh <- item
			continue
		}
		if maxRun > 1 {
			if len(batch) > 0 && tier != batchTier {
				flush()
			}
			batch = append(batch, item)
			batchTier = tier
			if len(batch) >= maxRun {
				flush()
			}
			continue
		}
		flush()
		if err := e.issueFetch(item, tier); err != nil {
			item.err = err
			run.fail(err)
		}
		orderCh <- item
		workCh <- item
	}
	flush()
}

// issueCoalesced submits one run of adjacent same-tier misses. A
// single-member run degrades to the plain fetch path; longer runs take
// one fetch slot and one fetch-pool buffer per member (buffer ownership
// is exactly as in issueFetch — one owner per buffer, returned by
// processItem/releaseFetch) and share one vectored aio op at Prefetch
// class. On submission failure every member is failed and its resources
// returned; mid-run corruption recovers per member via awaitRead's
// single-read retry discipline.
func (e *Engine) issueCoalesced(run *phaseRun, batch []*updateItem, tier int) {
	if len(batch) == 1 {
		item := batch[0]
		if err := e.issueFetch(item, tier); err != nil {
			item.err = err
			run.fail(err)
		}
		return
	}
	keys := make([]string, len(batch))
	bufs := make([][]byte, len(batch))
	dsts := make([][]byte, len(batch))
	for i, item := range batch {
		e.fetchSem <- struct{}{} // the batch cap keeps this ≤ prefetchDepth
		size := subgroup.StateBytes(e.shard.Subgroups[item.sgID].Len())
		keys[i] = e.key(item.sgID)
		bufs[i] = e.fetchPool.Get()
		dsts[i] = bufs[i][:size]
	}
	op, err := e.aios[tier].SubmitReadVecClass(aio.Prefetch, keys, dsts)
	if err != nil {
		for i, item := range batch {
			e.fetchPool.Put(bufs[i])
			<-e.fetchSem
			item.err = err
		}
		run.fail(err)
		return
	}
	co := &coalescedFetch{op: op}
	for i, item := range batch {
		item.pf = &pendingFetch{stateOp: op, stateBuf: bufs[i], tier: tier, co: co}
	}
}

// issueFetch submits the asynchronous state (and, on the baseline path,
// gradient) reads for one offloaded subgroup.
func (e *Engine) issueFetch(item *updateItem, tier int) error {
	sgID := item.sgID
	sg := e.shard.Subgroups[sgID]
	e.fetchSem <- struct{}{} // prefetchDepth bounds in-flight fetches
	buf := e.fetchPool.Get()
	size := subgroup.StateBytes(sg.Len())
	// Issued as Prefetch: the issuer runs ahead of the workers, so at
	// submission time this is speculative read-ahead. The worker that
	// blocks on it promotes it to DemandFetch (processItem), which is what
	// keeps the critical path ahead of flush and checkpoint traffic
	// without starving them.
	op, err := e.aios[tier].SubmitReadClass(aio.Prefetch, e.key(sgID), buf[:size])
	if err != nil {
		e.fetchPool.Put(buf)
		<-e.fetchSem
		return err
	}
	pf := &pendingFetch{stateOp: op, stateBuf: buf, tier: tier}
	if !e.cfg.SkipGradFlush {
		// Gradients live where backward flushed them (gradLoc).
		gtier := e.gradLoc[sgID]
		if gtier < 0 {
			gtier = tier
		}
		gbuf := e.gradPool.Get()
		gop, err := e.aios[gtier].SubmitReadClass(aio.GradRead, e.gradKey(sgID), gbuf[:4*sg.Len()])
		if err != nil {
			e.gradPool.Put(gbuf)
			e.releaseFetch(pf) // waits the state op; buffer must be idle
			return err
		}
		pf.gradOp = gop
		pf.gradBuf = gbuf
		pf.gradTier = gtier
	}
	item.pf = pf
	return nil
}

// updateWorker consumes items and runs the fetch-wait + Adam update stage.
func (e *Engine) updateWorker(run *phaseRun, workCh chan *updateItem) {
	for item := range workCh {
		if item.err == nil {
			if err := e.processItem(run, item); err != nil {
				item.err = err
				run.fail(err)
			}
		}
		close(item.done)
	}
}

// dropState releases a subgroup's in-memory state: an adopted backing
// buffer returns to the fetch pool (nothing references its bytes once
// State drops), an owned state is left to the garbage collector.
func (e *Engine) dropState(sg *subgroup.Subgroup) {
	sg.State = nil
	if sg.Backing != nil {
		e.fetchPool.Put(sg.Backing)
		sg.Backing = nil
	}
}

// adoptState hands a fetched serialized state object (in the fetch-pool
// buffer buf, object length size) to the subgroup: zero-copy aliasing
// via MapState where the platform allows — buf is then retained as
// sg.Backing until the state is flushed or dropped — and the copying
// Unmarshal fallback otherwise. adoptState consumes buf on every path
// (kept, or returned to the fetch pool on fallback and on error), and
// releases any stale adopted state a previously failed phase left
// behind, so callers never touch the buffer again.
func (e *Engine) adoptState(sg *subgroup.Subgroup, buf []byte, size int) error {
	e.dropState(sg)
	aliased, err := sg.MapState(buf[:size])
	if err != nil {
		e.fetchPool.Put(buf)
		return err
	}
	if aliased {
		sg.Backing = buf
		return nil
	}
	err = sg.Unmarshal(buf[:size])
	e.fetchPool.Put(buf)
	if err != nil {
		sg.State = nil
		return err
	}
	return nil
}

// adoptGrads hands a fetched FP32 gradient object to the subgroup: on
// viewable buffers Grads32 aliases the bytes in place and the pooled
// buffer is returned for the caller to release *after* the update
// kernel; otherwise the gradients are bulk-decoded into an owned
// Grads32, the buffer recycles immediately, and nil is returned.
func (e *Engine) adoptGrads(sg *subgroup.Subgroup, gbuf []byte) []byte {
	n := sg.Len()
	if v, ok := f32view.View(gbuf[:4*n]); ok {
		sg.Grads32 = v[0:n:n]
		return gbuf
	}
	sg.EnsureGrads32()
	f32view.Decode(sg.Grads32, gbuf[:4*n])
	e.gradPool.Put(gbuf)
	return nil
}

// releaseFetch abandons an item's fetch: it returns the staging buffers to
// their pools, waiting for the ops first (a pooled buffer must never have
// a transfer in flight), and frees the fetch slot. Waiting an op that
// already completed — or was already waited — returns immediately.
func (e *Engine) releaseFetch(pf *pendingFetch) {
	//mlpvet:allow aioop the fetch is being abandoned; waiting only quiesces the buffer before pooling
	_ = pf.stateOp.Wait()
	e.fetchPool.Put(pf.stateBuf)
	if pf.gradOp != nil {
		//mlpvet:allow aioop the fetch is being abandoned; waiting only quiesces the buffer before pooling
		_ = pf.gradOp.Wait()
		e.gradPool.Put(pf.gradBuf)
	}
	<-e.fetchSem
}

// processItem performs one subgroup's fetch-completion, state adoption,
// clip, Adam step and FP16 re-encode. All engine state it mutates is
// private to the subgroup (pinning keeps eviction away); shared
// structures (estimator, rate limiters, pools) are concurrency-safe.
//
// Zero-copy steady state: a fetched state object is not deserialized —
// MapState validates its header and points optim.State's Params/M/V
// directly at the fetched bytes, the Adam kernel runs in place, and the
// very same buffer is later flushed back by the committer's eviction
// path (flushEvicted), eliminating Marshal/Unmarshal and both staging
// copies from the hot path. The buffer's ownership follows the state:
// it is recorded in sg.Backing and returns to the fetch pool only after
// the flush lands. FP32 gradient objects get the same treatment: the
// fetched buffer is viewed in place as sg.Grads32 for the duration of
// the kernel. Platforms where viewing is impossible (big-endian,
// misaligned buffer) fall back to the copying path with bulk
// conversion kernels — bit-identical either way.
func (e *Engine) processItem(run *phaseRun, item *updateItem) error {
	sg := e.shard.Subgroups[item.sgID]
	var gradBacking []byte // pooled buffer Grads32 aliases, if any
	if pf := item.pf; pf != nil {
		// This worker is now blocked on the fetch: it stops being
		// speculative. Promote it past flush and checkpoint traffic
		// (a no-op if it already started executing).
		e.aios[pf.tier].Promote(pf.stateOp, aio.DemandFetch)
		size := subgroup.StateBytes(sg.Len())
		stateOp, err := e.awaitRead(pf.tier, pf.stateOp, e.key(item.sgID), pf.stateBuf[:size])
		pf.stateOp = stateOp // releaseFetch must wait the live op
		if err != nil {
			e.releaseFetch(pf)
			return fmt.Errorf("engine: fetch subgroup %d: %w", item.sgID, err)
		}
		if err := run.ctx.Err(); err != nil {
			// Phase cancelled while the fetch was in flight: release the
			// buffers untouched and drain.
			e.releaseFetch(pf)
			return err
		}
		// Adopt the fetched object in place; the copying fallback keeps
		// unaligned/big-endian hosts correct with one bulk conversion.
		// adoptState consumes the state buffer, so this and every later
		// error path release only the grad fetch and the prefetch slot.
		if err := e.adoptState(sg, pf.stateBuf, size); err != nil {
			if pf.gradOp != nil {
				//mlpvet:allow aioop adoption failed and the grad fetch is abandoned; waiting only quiesces the buffer before pooling
				_ = pf.gradOp.Wait()
				e.gradPool.Put(pf.gradBuf)
			}
			<-e.fetchSem
			return err
		}
		if co := pf.co; co != nil && pf.stateOp == co.op {
			// Member of a coalesced vectored read (and still riding the
			// batch op — a corrupt-retry in awaitRead would have replaced
			// it with a private single read): exactly one member shows the
			// estimator the whole transfer — the device made one pass.
			co.obs.Do(func() { e.observe(pf.tier, pf.stateOp) })
		} else {
			e.observe(pf.tier, pf.stateOp)
		}
		if pf.gradOp != nil {
			gradOp, err := e.awaitRead(pf.gradTier, pf.gradOp, e.gradKey(item.sgID), pf.gradBuf[:4*sg.Len()])
			pf.gradOp = gradOp
			if err != nil {
				// The item fails: release the just-adopted state too, so
				// its backing buffer returns to the fetch pool promptly
				// (the adoption prelude would also reclaim it, but only
				// at the next refetch).
				e.gradPool.Put(pf.gradBuf)
				e.dropState(sg)
				<-e.fetchSem
				return fmt.Errorf("engine: grad fetch subgroup %d: %w", item.sgID, err)
			}
			gradBacking = e.adoptGrads(sg, pf.gradBuf)
			e.observe(pf.gradTier, pf.gradOp)
		}
		<-e.fetchSem // fetch fully consumed: free the prefetch slot
	} else {
		if err := run.ctx.Err(); err != nil {
			return err
		}
		if !e.cfg.SkipGradFlush && sg.Grads32 == nil {
			// Rare: baseline hit still needs grads from storage — from
			// wherever backward flushed them this iteration.
			gtier := e.gradLoc[item.sgID]
			if gtier < 0 {
				e.cacheMu.Lock()
				gtier = e.plan.TierFor(item.sgID)
				e.cacheMu.Unlock()
			}
			gbuf := e.gradPool.Get()
			gop, err := e.aios[gtier].SubmitReadClass(aio.GradRead, e.gradKey(item.sgID), gbuf[:4*sg.Len()])
			if err == nil {
				_, err = e.awaitRead(gtier, gop, e.gradKey(item.sgID), gbuf[:4*sg.Len()])
			}
			if err != nil {
				e.gradPool.Put(gbuf)
				return err
			}
			gradBacking = e.adoptGrads(sg, gbuf)
		}
	}

	// Update kernel: delayed in-place conversion vs pre-upscaled. With an
	// adopted state the kernel writes straight into the serialized bytes.
	var sw metrics.Stopwatch
	sw.StartOn(e.clk)
	applyClip(sg, run.clip, e.cfg.SkipGradFlush)
	// Intra-subgroup parallelism: the update's element range is mined in
	// fixed-size chunks by the shared kernel pool (serially when kern is
	// nil), so one subgroup's Adam step uses every kernel worker. Chunk
	// boundaries are identical at any worker count, so the parameters
	// are bit-identical regardless of KernelWorkers.
	if e.cfg.SkipGradFlush {
		optim.StepFP16On(e.kern, sg.State, sg.Grads16, e.cfg.Hyper, e.step)
	} else {
		optim.StepFP32On(e.kern, sg.State, sg.Grads32, e.cfg.Hyper, e.step)
		sg.Grads32 = nil // discarded after the update, as in ZeRO-3
	}
	if gradBacking != nil {
		// The kernel is done with the viewed gradient bytes; the buffer
		// may recycle now (Grads32 no longer references it).
		sg.Grads32 = nil
		e.gradPool.Put(gradBacking)
	}
	item.compute = sw.Lap()

	// H2D: the refreshed FP16 parameters return to the device.
	off := e.sgOffset[item.sgID]
	fp16.EncodeOn(e.kern, e.params16[off:off+int64(sg.Len())], sg.State.Params)
	return nil
}

// commitItems is the committer stage: strictly in order, it counts each
// item's cache outcome and kernel time, makes the subgroup's residency
// official, and lazily flushes LRU victims. Successful items are
// committed even after a phase failure so the engine's residency
// bookkeeping matches the updates that actually happened.
func (e *Engine) commitItems(run *phaseRun, it *metrics.Iteration, window chan struct{}, orderCh chan *updateItem) {
	for item := range orderCh {
		<-item.done
		if item.err != nil {
			e.cacheMu.Lock()
			e.lru.Unpin(item.sgID)
			e.cacheMu.Unlock()
			run.fail(item.err)
			<-window
			continue
		}
		if item.hit {
			it.CacheHits++
		} else {
			it.CacheMisses++
		}
		it.UpdateComputeTime += item.compute

		// Cache decision: most-recently-updated subgroups stay resident;
		// displaced victims are lazily flushed to their (re)assigned tiers.
		// loc, pins, eviction and the victims' holds change atomically so
		// the issuer always sees a consistent residency picture.
		e.cacheMu.Lock()
		if !item.hit {
			e.loc[item.sgID] = locHost
			// The fetched-from tier still holds the pre-update object;
			// remember it so the eventual eviction can reclaim it if it
			// lands on a different tier.
			e.staleTier[item.sgID] = item.pf.tier
		}
		e.lru.Unpin(item.sgID)
		victims := e.lru.TouchEvict(item.sgID)
		stales := make([]int, len(victims))
		for i, v := range victims {
			e.held[v] = true
			e.loc[v] = e.plan.TierFor(v)
			stales[i] = e.staleTier[v]
			e.staleTier[v] = -1
		}
		e.cacheMu.Unlock()
		for i, v := range victims {
			if err := e.flushEvicted(v, stales[i]); err != nil {
				run.fail(err)
			}
			e.release(v)
		}
		<-window
	}
}

// flushEvicted asynchronously flushes an evicted subgroup to the tier
// already recorded in loc. The committer holds the subgroup across the
// call, so the write — and the reclaim of a stale copy — are queued ahead
// of any later op on its key. A state adopted over its fetched buffer
// (sg.Backing) is *already* serialized — the in-place update kept the
// buffer the live serialized form — so the very same buffer is submitted
// with no marshal pass and no staging copy; it returns to the fetch pool
// when the write lands. The copying fallback marshals into a flush-pool
// buffer as before. Either way the subgroup's state is freed immediately.
// stale, when >= 0 and different from the destination, is a tier still
// holding the subgroup's pre-update object; it is reclaimed so the object
// lives on exactly one tier.
func (e *Engine) flushEvicted(v int, stale int) error {
	sg := e.shard.Subgroups[v]
	tier := e.loc[v]
	if sg.State == nil {
		return fmt.Errorf("engine: flush of non-resident subgroup %d", v)
	}
	var buf []byte
	var n int
	aliased := sg.Backing != nil
	if aliased {
		buf = sg.Backing
		n = subgroup.StateBytes(sg.Len())
	} else {
		buf = e.flushPool.Get() // backpressure: at most 2 concurrent copy-flushes
		var err error
		n, err = sg.Marshal(buf, false)
		if err != nil {
			e.flushPool.Put(buf)
			e.dropState(sg)
			return err
		}
	}
	op, err := e.aios[tier].SubmitWriteClass(aio.Flush, e.key(v), buf[:n])
	if err != nil {
		// The phase fails and the in-memory update is lost either way;
		// drop the state so an adopted backing buffer returns to the
		// fetch pool promptly instead of waiting for a later re-adoption.
		if !aliased {
			e.flushPool.Put(buf)
		}
		e.dropState(sg)
		return err
	}
	sg.State = nil
	sg.Backing = nil
	if stale >= 0 && stale != tier {
		// A replan moved the subgroup: this write is the move.
		e.reclaim(aio.Flush, stale, e.key(v))
		e.migStats.mu.Lock()
		e.migStats.moves++
		e.migStats.bytes += int64(n)
		e.migStats.mu.Unlock()
	}
	putBuf := func() {
		if aliased {
			e.fetchPool.Put(buf)
		} else {
			e.flushPool.Put(buf)
		}
	}
	e.flushWG.Add(1)
	go func() {
		defer e.flushWG.Done()
		// A failed write surfaces via pendingFlush at the phase barrier.
		if op.Wait() == nil {
			e.observe(tier, op)
		}
		putBuf()
	}()
	e.mu.Lock()
	e.pendingFlush = append(e.pendingFlush, op)
	e.mu.Unlock()
	return nil
}
