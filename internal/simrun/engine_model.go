// The simulator pipeline: the DES model of the offloading engine. Every
// tier operation is submitted to a des.Sched per (tier, GPU worker) — the
// analogue of the aio engine object the runtime instantiates per storage
// path per process. What an Approach turns on decides the rest: the
// I/O-worker bound, class-based priority with aging, codec wire-vs-raw
// accounting and vectored fetch coalescing; the Config adds per-op
// submission overhead, co-tenant checkpoint storms and mid-run bandwidth
// slowdowns.
package simrun

import (
	"fmt"

	"github.com/datastates/mlpoffload/internal/aio"
	"github.com/datastates/mlpoffload/internal/cluster"
	"github.com/datastates/mlpoffload/internal/des"
	"github.com/datastates/mlpoffload/internal/hostcache"
	"github.com/datastates/mlpoffload/internal/metrics"
	"github.com/datastates/mlpoffload/internal/placement"
)

// tier is one storage device. The device is either the paper's half-duplex
// resource — reads and writes share a unit-capacity device-time link, so a
// byte read costs 1/ReadBW device-seconds and a byte written 1/WriteBW,
// with concurrent uncoordinated clients paying the interference curve — or
// (FullDuplex) a pair of independent byte-rate links matching
// storage.Throttled's two token buckets. Exclusive access (the MLP-Offload
// concurrency control) serializes transfers through mu and sees the full
// device. One Sched per GPU worker feeds it.
type tier struct {
	name       string
	spec       cluster.StorageTierSpec
	dev        *des.Link  // half-duplex device-time link (nil when full duplex)
	rdev, wdev *des.Link  // full-duplex byte links (nil when half duplex)
	mu         *des.Mutex // nil when access is uncoordinated
	scheds     []*des.Sched
}

// scale shifts the tier's delivered bandwidth (external PFS load, mid-run
// device failure). Half-duplex transfers are priced at admission from the
// spec; full-duplex links change rate for in-flight transfers too.
func (t *tier) scale(f float64) {
	t.spec.ReadBW *= f
	t.spec.WriteBW *= f
	if t.rdev != nil {
		t.rdev.SetPeak(t.spec.ReadBW)
		t.wdev.SetPeak(t.spec.WriteBW)
	}
}

// pipeline carries the shared state of one run.
type pipeline struct {
	sim      *des.Sim
	tiers    []*tier
	est      *placement.Estimator
	plan     placement.Plan
	sgParams []int64
	fetchBPP float64 // bytes per parameter one subgroup fetch reads

	classes []string
	classOf func(aio.Class) int

	codecRatio float64 // raw/wire; 1 = no codec
	encBW      float64 // raw bytes/s; 0 = free
	decBW      float64

	clients   int
	stormStop bool

	trace    []SubgroupIO
	fetchLat []float64
	ckptLat  []float64
	ckptOps  int64
	traceLog []string
}

// release drops one pipeline client (worker, storm job); the
// last one out closes every scheduler so idle service procs exit.
func (r *pipeline) release() {
	r.clients--
	if r.clients == 0 {
		for _, t := range r.tiers {
			for _, sc := range t.scheds {
				sc.Close()
			}
		}
	}
}

// wire converts raw caller bytes to device-level bytes under the codec.
func (r *pipeline) wire(raw float64) float64 { return raw / r.codecRatio }

// readExec returns the service closure for a read: exclusive lock, device
// transfer of the wire bytes, estimator observation, decode cost. The
// estimator sees the transfer alone, never the lock wait: feeding queue
// delay back into placement would destabilize it.
func (r *pipeline) readExec(t *tier, raw, wireB float64) func(p *des.Proc) {
	return func(p *des.Proc) {
		if t.mu != nil {
			t.mu.Lock(p)
		}
		t0 := p.Now()
		if t.rdev != nil {
			t.rdev.Transfer(p, wireB)
		} else {
			t.dev.Transfer(p, wireB/t.spec.ReadBW)
		}
		xfer := p.Now() - t0
		if t.mu != nil {
			t.mu.Unlock(p)
		}
		r.est.ObserveRead(t.name, wireB, xfer)
		if r.decBW > 0 && r.codecRatio > 1 {
			p.Sleep(raw / r.decBW)
		}
	}
}

// writeExec is readExec's mirror: encode cost, then the device transfer.
func (r *pipeline) writeExec(t *tier, raw, wireB float64) func(p *des.Proc) {
	return func(p *des.Proc) {
		if r.encBW > 0 && r.codecRatio > 1 {
			p.Sleep(raw / r.encBW)
		}
		if t.mu != nil {
			t.mu.Lock(p)
		}
		t0 := p.Now()
		if t.wdev != nil {
			t.wdev.Transfer(p, wireB)
		} else {
			t.dev.Transfer(p, wireB/t.spec.WriteBW)
		}
		xfer := p.Now() - t0
		if t.mu != nil {
			t.mu.Unlock(p)
		}
		r.est.ObserveWrite(t.name, wireB, xfer)
	}
}

// submitFlush queues a Flush-class write and a bridge proc that records it
// into the iteration accumulator — and, when pos >= 0, into the Figure 5
// trace — then fires ev.
func (r *pipeline) submitFlush(w int, t *tier, name string, raw float64, it *metrics.Iteration, ev *des.Event, pos int) {
	wireB := r.wire(raw)
	op := t.scheds[w].Submit(r.classOf(aio.Flush), name, raw, r.writeExec(t, raw, wireB))
	r.sim.Spawn(name+".done", func(p *des.Proc) {
		op.Wait(p)
		it.BytesWritten += raw
		it.WireBytesWritten += wireB
		it.WriteTime += op.Latency()
		it.RecordClassIO(r.classes[op.Class()], raw, wireB, op.QueueDelay(), op.Latency()-op.QueueDelay())
		if pos >= 0 {
			r.trace = append(r.trace, SubgroupIO{Pos: pos, WriteBW: raw / op.Latency()})
		}
		ev.Fire()
	})
}

// pendingFetch tracks one subgroup's in-flight fetch for the update loop.
type pendingFetch struct {
	ev    *des.Event
	op    *des.SchedOp
	sched *des.Sched
}

// fetch submits one (possibly vectored) read of the batch's state from tier
// ti: 12 B/param, or 16 when backward flushed FP32 gradients beside it.
func (r *pipeline) fetch(w, ti int, batch []int) (op *des.SchedOp, raw float64) {
	t := r.tiers[ti]
	for _, sg := range batch {
		raw += float64(r.sgParams[sg]) * r.fetchBPP
	}
	op = t.scheds[w].Submit(r.classOf(aio.Prefetch), fmt.Sprintf("w%d.fetch%d", w, batch[0]),
		raw, r.readExec(t, raw, r.wire(raw)))
	return op, raw
}

// fetched accounts a completed fetch whose consumer issued it at since;
// pos >= 0 also records it in the Figure 5 trace.
func (r *pipeline) fetched(p *des.Proc, op *des.SchedOp, raw, since float64, it *metrics.Iteration, pos int) {
	perceived := p.Now() - since
	wireB := r.wire(raw)
	it.RecordClassIO(r.classes[op.Class()], raw, wireB, op.QueueDelay(), op.Latency()-op.QueueDelay())
	it.BytesRead += raw
	it.WireBytesRead += wireB
	it.ReadTime += perceived
	r.fetchLat = append(r.fetchLat, perceived)
	if pos >= 0 {
		r.trace = append(r.trace, SubgroupIO{Pos: pos, ReadBW: raw / perceived})
	}
}

// submitFetchBatch queues the batch's read plus a bridge proc that accounts
// the op and fires each member's event.
func (r *pipeline) submitFetchBatch(w, ti int, batch []int, it *metrics.Iteration, fetches map[int]*pendingFetch, pos int) {
	op, raw := r.fetch(w, ti, batch)
	evs := make([]*des.Event, len(batch))
	for i, sg := range batch {
		evs[i] = r.sim.NewEvent()
		fetches[sg] = &pendingFetch{ev: evs[i], op: op, sched: r.tiers[ti].scheds[w]}
	}
	since := r.sim.Now()
	r.sim.Spawn(fmt.Sprintf("w%d.fetch%d.done", w, batch[0]), func(p *des.Proc) {
		op.Wait(p)
		r.fetched(p, op, raw, since, it, pos)
		for _, ev := range evs {
			ev.Fire()
		}
	})
}

// workerState is one GPU worker's residency bookkeeping.
type workerState struct {
	lru   *hostcache.LRU
	loc   []int // -1 = host, else tier index
	phase int
}

// Run simulates one node of the configured system (nodes are symmetric;
// inter-node collective cost is added to the backward pass) and returns
// the measured result.
func Run(cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	tb := cfg.Testbed
	ap := cfg.Approach
	W := tb.GPUsPerNode
	totalParams := cfg.Model.Params()
	shardParams := totalParams / int64(W*cfg.Nodes)
	if shardParams <= 0 {
		return nil, fmt.Errorf("simrun: model too small for %d workers", W*cfg.Nodes)
	}
	M := int((shardParams + cfg.SubgroupParams - 1) / cfg.SubgroupParams)

	sim := des.New()
	r := &pipeline{sim: sim, est: placement.NewEstimator(0.5), codecRatio: 1, fetchBPP: 12}
	if !ap.SkipGradFlush {
		r.fetchBPP = 16
	}
	if ap.CodecRatio > 1 {
		r.codecRatio = ap.CodecRatio
		r.encBW = ap.CodecEncBW
		r.decBW = ap.CodecDecBW
	}
	aging := 0.0
	if ap.PriorityIO {
		r.classes = make([]string, aio.NumClasses)
		for i, c := range aio.Classes() {
			r.classes[i] = c.String()
		}
		r.classOf = func(c aio.Class) int { return int(c) }
		aging = aio.DefaultAgingThreshold.Seconds()
	} else {
		// Flat FIFO: the paper's runtimes and the pre-PR-3 engine (the
		// storm scenario's contrast arm).
		r.classes = []string{"fifo"}
		r.classOf = func(aio.Class) int { return 0 }
	}

	// Host cache capacity.
	stateBytesPerSG := float64(cfg.SubgroupParams) * 12
	var slots int
	if ap.Order == hostcache.Alternating {
		cache := tb.HostCacheBytes(totalParams/int64(cfg.Nodes), ap.SkipGradFlush)
		slots = int(float64(cache) / float64(W) / stateBytesPerSG)
		if slots < 3 {
			slots = 3
		}
		if slots > M {
			slots = M
		}
	} else {
		// DeepNVMe's rotating buffers: one prefetched, one updating, one
		// flushing.
		slots = 3
	}
	if cfg.CacheSlots > 0 {
		slots = min(cfg.CacheSlots, M)
	}
	prefetchDepth := min(4, slots)
	if ap.Order != hostcache.Alternating {
		prefetchDepth = 1
	}
	if cfg.PrefetchDepth > 0 {
		prefetchDepth = min(cfg.PrefetchDepth, M)
	}
	coalesce := max(ap.CoalesceFetches, 1)
	ioWorkers := ap.IOWorkers
	if ioWorkers <= 0 {
		// A worker has at most prefetchDepth+coalesce-1 fetches (the
		// window rounds up to a batch) and two flushes outstanding on a
		// tier; one slot each, plus a spare, means none of them queues.
		ioWorkers = prefetchDepth + coalesce + 2
	}

	var traceFn func(string)
	if cfg.TraceEvents {
		traceFn = func(line string) { r.traceLog = append(r.traceLog, line) }
	}
	mkTier := func(spec cluster.StorageTierSpec) *tier {
		// Interference counts competing processes (one per GPU), not raw
		// in-flight ops: deeper queues from one worker do not add device
		// interference, they just wait their turn.
		curve := des.CappedInterference(spec.InterferenceAlpha, W)
		t := &tier{name: spec.Name, spec: spec}
		if cfg.FullDuplex {
			t.rdev = sim.NewLink(spec.Name+".r", spec.ReadBW, curve)
			t.wdev = sim.NewLink(spec.Name+".w", spec.WriteBW, curve)
		} else {
			t.dev = sim.NewLink(spec.Name, 1.0, curve)
		}
		if ap.ExclusiveIO {
			t.mu = sim.NewMutex()
		}
		t.scheds = make([]*des.Sched, W)
		for w := 0; w < W; w++ {
			t.scheds[w] = sim.NewSched(fmt.Sprintf("%s.w%d", spec.Name, w), des.SchedConfig{
				Workers:  ioWorkers,
				Classes:  r.classes,
				Aging:    aging,
				Overhead: cfg.OpOverhead,
				Trace:    traceFn,
			})
		}
		return t
	}
	if !cfg.CPUOnly {
		r.tiers = append(r.tiers, mkTier(tb.NVMe))
		if ap.UsePFS {
			r.tiers = append(r.tiers, mkTier(tb.PFS))
		}
	}
	if len(r.tiers) == 0 && cfg.CheckpointJobs > 0 {
		return nil, fmt.Errorf("simrun: checkpoint storm needs a storage tier")
	}

	// CPU update resource: processor-sharing across workers, measured in
	// parameters/second.
	cpu := sim.NewLink("cpu", tb.CPUUpdateParamsPerSec, nil)

	// Placement plan (per worker; identical for all workers), seeded from
	// the microbenchmark bandwidths and — with adaptive placement — re-fit
	// each iteration from EWMA-smoothed observed bandwidths.
	tierNames := make([]string, len(r.tiers))
	if len(r.tiers) > 0 {
		tbw := make([]placement.TierBandwidth, len(r.tiers))
		for i, t := range r.tiers {
			tbw[i] = placement.TierBandwidth{Name: t.name, BW: t.spec.MinBW()}
			r.est.Seed(t.name, t.spec.ReadBW, t.spec.WriteBW)
			tierNames[i] = t.name
		}
		r.plan = placement.NewPlan(M, tbw)
	}

	// Compute-time model.
	tokensPerStep := float64(cfg.Model.SeqLen * cfg.MicroBatch)
	fwdTime := cfg.Model.FLOPsPerToken() * tokensPerStep / (tb.GPU.TFLOPS * 1e12)
	bwdComputeTime := 3 * fwdTime // 2x backward + 1x activation recompute
	// Inter-node collectives (tensor parallel intra-node, data parallel
	// across nodes): FP16 gradient reduce-scatter + parameter all-gather,
	// sharded 1/W by tensor parallelism.
	commTime := cluster.CollectiveTime(2*2*float64(totalParams)/float64(W), cfg.Nodes, tb.InterconnectBW)

	r.sgParams = make([]int64, M)
	for i := range r.sgParams {
		n := cfg.SubgroupParams
		if rem := shardParams - int64(i)*cfg.SubgroupParams; rem < n {
			n = rem
		}
		r.sgParams[i] = n
	}

	workers := make([]*workerState, W)
	for w := range workers {
		ws := &workerState{lru: hostcache.NewLRU(slots), loc: make([]int, M)}
		for i := range ws.loc {
			if cfg.CPUOnly {
				ws.loc[i] = -1
			} else {
				ws.loc[i] = r.plan.TierFor(i)
			}
		}
		workers[w] = ws
	}

	// Measurement state (DES is single-threaded: plain fields suffice).
	iters := make([]metrics.Iteration, cfg.Iterations)
	type phaseStamp struct{ fwdEnd, bwdEnd, updEnd, start float64 }
	stamps := make([]phaseStamp, cfg.Iterations)

	barrier := sim.NewBarrier(W)

	const fp16Bytes = 2.0
	d2h := tb.GPU.D2HBandwidth
	conv := tb.CPUConvertBytesPerSec

	r.clients = W
	for w := 0; w < W; w++ {
		w := w
		ws := workers[w]
		sim.Spawn(fmt.Sprintf("worker%d", w), func(p *des.Proc) {
			for iter := 0; iter < cfg.Iterations; iter++ {
				it := &iters[iter]
				if w == 0 {
					stamps[iter].start = p.Now()
					if cfg.SlowdownFactor > 0 && cfg.SlowdownFactor < 1 &&
						iter == cfg.SlowdownAt && cfg.SlowdownTier < len(r.tiers) {
						r.tiers[cfg.SlowdownTier].scale(cfg.SlowdownFactor)
					}
				}

				// ---- Forward ----
				p.Sleep(fwdTime * float64(cfg.GradAccumSteps))
				barrier.Await(p)
				if w == 0 {
					stamps[iter].fwdEnd = p.Now()
				}

				// ---- Backward ----
				// Grad flushes are asynchronous but bounded to one in
				// flight per worker, as DeepNVMe's submission queue is:
				// when the device falls behind, the backward pass stalls
				// waiting for the previous flush — exactly the "large
				// asynchronous FP32 gradient flushes that can delay the
				// backward pass" the paper eliminates.
				var prevGradFlush *des.Event
				for a := 0; a < cfg.GradAccumSteps; a++ {
					last := a == cfg.GradAccumSteps-1
					for i := 0; i < M; i++ {
						n := float64(r.sgParams[i])
						p.Sleep(bwdComputeTime / float64(M))
						p.Sleep(n * fp16Bytes / d2h) // FP16 grads D2H
						if !ap.SkipGradFlush && last && !cfg.CPUOnly {
							// Upscale to FP32 and flush to the subgroup's
							// tier asynchronously.
							p.Sleep(n * 4 / conv)
							if prevGradFlush != nil {
								prevGradFlush.Wait(p)
							}
							ev := sim.NewEvent()
							prevGradFlush = ev
							r.submitFlush(w, r.tiers[tierOf(ws.loc[i], r.plan, i)],
								fmt.Sprintf("w%d.gflush%d", w, i), n*4, it, ev, -1)
						}
					}
				}
				if prevGradFlush != nil {
					prevGradFlush.Wait(p)
				}
				if cfg.Nodes > 1 {
					p.Sleep(commTime)
				}
				barrier.Await(p)
				if w == 0 {
					stamps[iter].bwdEnd = p.Now()
				}

				// ---- Update (Algorithm 1) ----
				order := hostcache.UpdateOrder(ap.Order, M, ws.phase)
				tracePos := func(sg int) int { return -1 }
				if w == 0 && iter == cfg.TraceIteration {
					tracePos = func(sg int) int { return posOf(order, sg) }
				}
				fetches := make(map[int]*pendingFetch, prefetchDepth)
				var flushEvents []*des.Event
				inflight := 0
				pending := make([]int, len(order))
				copy(pending, order)
				issue := func() {
					for len(pending) > 0 && inflight < prefetchDepth {
						sgID := pending[0]
						pending = pending[1:]
						if cfg.CPUOnly || ws.loc[sgID] == -1 {
							continue
						}
						ti := ws.loc[sgID]
						batch := []int{sgID}
						// Vectored gather: fill the batch with same-tier
						// subgroups from the prefetch window, skipping (not
						// dropping) entries bound elsewhere — the engine's
						// vectored reads batch per pool file, not per
						// consume-order run. The head is always issued, so a
						// partial batch can never stall the consumer, and
						// the depth window rounds up to batch granularity
						// (outstanding objects <= depth+coalesce-1).
						for i := 0; i < len(pending) && i < prefetchDepth && len(batch) < coalesce; {
							next := pending[i]
							if ws.loc[next] == ti {
								batch = append(batch, next)
								pending = append(pending[:i], pending[i+1:]...)
							} else {
								i++
							}
						}
						inflight += len(batch)
						r.submitFetchBatch(w, ti, batch, it, fetches, tracePos(sgID))
					}
				}
				issue()
				for _, sgID := range order {
					n := float64(r.sgParams[sgID])
					if pf, ok := fetches[sgID]; ok {
						if !pf.ev.Fired() {
							// The consumer is blocked on it right now:
							// promote prefetch → demand fetch (aio's
							// promotion path).
							pf.sched.Promote(pf.op)
						}
						pf.ev.Wait(p)
						delete(fetches, sgID)
						inflight--
						it.CacheMisses++
						ws.loc[sgID] = -1
					} else if !cfg.CPUOnly {
						it.CacheHits++
					}
					if ap.SkipGradFlush {
						p.Sleep(n * 4 / conv) // delayed FP16→FP32 conversion
					}
					t0 := p.Now()
					cpu.Transfer(p, n) // Adam kernel (params as units)
					it.UpdateComputeTime += p.Now() - t0
					p.Sleep(n * fp16Bytes / d2h) // FP16 params H2D
					if !cfg.CPUOnly {
						evicted, did := ws.lru.Touch(sgID)
						if did {
							// Lazy flush, bounded to two in flight per
							// worker (the staging-buffer backpressure of a
							// real async engine: one flushing + one queued).
							if len(flushEvents) >= 2 {
								flushEvents[len(flushEvents)-2].Wait(p)
							}
							dst := r.plan.TierFor(evicted)
							ws.loc[evicted] = dst
							ev := sim.NewEvent()
							flushEvents = append(flushEvents, ev)
							r.submitFlush(w, r.tiers[dst], fmt.Sprintf("w%d.flush%d", w, evicted),
								float64(r.sgParams[evicted])*12, it, ev, tracePos(evicted))
						}
					}
					issue()
				}
				for _, ev := range flushEvents {
					ev.Wait(p)
				}
				ws.phase++
				it.ParamsUpdated += shardParams
				barrier.Await(p)
				if w == 0 {
					stamps[iter].updEnd = p.Now()
					// Re-fit the placement (Eq. 1) from observed
					// bandwidths; the next phase's eviction flushes move
					// the displaced subgroups toward the faster paths.
					if ap.AdaptivePlacement && len(r.tiers) > 1 {
						r.plan = placement.Replan(r.plan, r.est.Bandwidths(tierNames, 1))
					}
				}
				barrier.Await(p) // replanning visible to all before next iteration
			}
			if w == 0 {
				r.stormStop = true
			}
			r.release()
		})
	}

	// Co-tenant checkpoint storm: each job keeps one Checkpoint-class
	// write in flight against the persistent tier for the whole run.
	if cfg.CheckpointJobs > 0 {
		target := r.tiers[len(r.tiers)-1]
		ckptBytes := cfg.CheckpointBytes
		if ckptBytes <= 0 {
			ckptBytes = stateBytesPerSG
		}
		r.clients += cfg.CheckpointJobs
		for j := 0; j < cfg.CheckpointJobs; j++ {
			j := j
			w := j % W
			sim.Spawn(fmt.Sprintf("ckptjob%d", j), func(p *des.Proc) {
				if cfg.CheckpointInterval > 0 {
					// Staggered starts: real co-tenants are not in lockstep.
					p.Sleep(cfg.CheckpointInterval * float64(j) / float64(cfg.CheckpointJobs))
				}
				for !r.stormStop {
					// External tenants bypass our codec: raw == wire.
					op := target.scheds[w].Submit(r.classOf(aio.Checkpoint),
						fmt.Sprintf("ckpt%d", j), ckptBytes, r.writeExec(target, ckptBytes, ckptBytes))
					op.Wait(p)
					r.ckptOps++
					r.ckptLat = append(r.ckptLat, op.Latency())
					if cfg.CheckpointInterval > 0 {
						p.Sleep(cfg.CheckpointInterval)
					}
				}
				r.release()
			})
		}
	}

	if err := sim.Run(); err != nil {
		return nil, fmt.Errorf("simrun: %w", err)
	}

	res := &Result{Config: cfg, Trace: r.trace, CacheSlotsPerWorker: slots}
	if len(r.tiers) > 0 {
		res.PlanRatio = r.plan.Ratio()
	}
	res.Series.Warmup = cfg.Warmup
	for i := range iters {
		st := stamps[i]
		iters[i].Phases = metrics.Phases{
			Forward:  st.fwdEnd - st.start,
			Backward: st.bwdEnd - st.fwdEnd,
			Update:   st.updEnd - st.bwdEnd,
		}
		res.Series.Append(iters[i])
	}
	res.Mean = res.Series.Mean()
	// Tier distribution: optimizer-state bytes by final location across
	// all workers of the node.
	res.Mean.TierBytes = make(map[string]float64)
	for _, ws := range workers {
		for sg, loc := range ws.loc {
			name := "host"
			if loc >= 0 {
				name = r.tiers[loc].name
				if loc != r.plan.TierFor(sg) {
					res.MisplacedEnd++
				}
			}
			res.Mean.TierBytes[name] += float64(r.sgParams[sg]) * 12
		}
	}

	// Run-level class accounting, aggregated across every scheduler in a
	// fixed (tier, worker) order so percentile inputs are deterministic.
	res.Classes = make(map[string]ClassStat, len(r.classes))
	for c, name := range r.classes {
		var cs ClassStat
		var lat []float64
		for _, t := range r.tiers {
			for _, sc := range t.scheds {
				st := sc.ClassStats(c)
				cs.Ops += st.Ops
				cs.Bytes += st.Bytes
				cs.QueueDelay += st.QueueDelay
				cs.Service += st.Service
				lat = append(lat, sc.Latencies(c)...)
			}
		}
		cs.WireBytes = cs.Bytes / r.codecRatio
		cs.P50 = des.Percentile(lat, 50)
		cs.P95 = des.Percentile(lat, 95)
		if cs.Ops > 0 {
			res.Classes[name] = cs
		}
	}
	res.FetchP50 = des.Percentile(r.fetchLat, 50)
	res.FetchP95 = des.Percentile(r.fetchLat, 95)
	res.CheckpointOps = r.ckptOps
	res.CheckpointP95 = des.Percentile(r.ckptLat, 95)
	res.EventTrace = r.traceLog
	return res, nil
}

// tierOf resolves the tier for a subgroup that may be host-resident (use
// its planned tier for gradient objects).
func tierOf(loc int, plan placement.Plan, sg int) int {
	if loc >= 0 {
		return loc
	}
	return plan.TierFor(sg)
}

func posOf(order []int, sg int) int {
	for i, v := range order {
		if v == sg {
			return i
		}
	}
	return -1
}
