package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/datastates/mlpoffload/internal/aio"
	"github.com/datastates/mlpoffload/internal/fp16"
	"github.com/datastates/mlpoffload/internal/hostcache"
	"github.com/datastates/mlpoffload/internal/kernpool"
	"github.com/datastates/mlpoffload/internal/metrics"
	"github.com/datastates/mlpoffload/internal/optim"
	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/subgroup"
	"github.com/datastates/mlpoffload/internal/tiercodec"
)

// The per-layer metrics come from four sources, all outside the engine:
// (a) spanTier spans, (b) the span around the harness's BatchGradFn,
// (c) the values the public API returns (metrics.Iteration,
// MigrationStats, Plan, tierlock.Stats, checkpoint.Manifest), and
// (d) probes: direct timed calls into one layer at the workload's object
// size. Metric names start with the module they measure.
//
// Counts and times of the traced iterations are reported per iteration,
// because a window measured in seconds holds a varying number of them.
// "Traced iterations" are those after the lead-in (see iterKind).

// tierNames are the tiers a per-tier metric exists for, whether or not
// the workload uses them (an unused tier reports zeros).
var tierNames = []string{"nvme", "pfs", "ckpt"}

// perLayer fills the per-layer metrics of sources (a) to (c).
func perLayer(m map[string]metric, r *rig, w *window, spans []span, restoreWall time.Duration) {
	var on, off []iterSample
	for _, s := range w.iters {
		switch s.kind {
		case traced:
			on = append(on, s)
		case untraced:
			off = append(off, s)
		}
	}
	n := float64(len(on))
	per := func(total float64) float64 { return ratio(total, n) }

	// engine: iteration time and where it went.
	var walls []float64
	var sum metrics.Iteration // counters summed over traced iterations
	var flips, misplaced, nvmeShare, splitErr, skew float64
	bwShare := nvmeWriteBW / (nvmeWriteBW + pfsWriteBW) // min(read, write) of each tier
	if r.wl.baseline {
		bwShare = 1
	}
	for _, s := range on {
		walls = append(walls, s.wall.Seconds())
		sum.Merge(s.res.it)
		flips += float64(s.flips)
		misplaced += float64(s.misplaced)
		var offloaded float64
		for name, b := range s.res.it.TierBytes {
			if name != "host" {
				offloaded += b
			}
		}
		share := ratio(s.res.it.TierBytes["nvme"], offloaded)
		nvmeShare += share
		splitErr += math.Abs(share - bwShare)
		lo, hi := s.res.perRank[0].Phases.Total(), s.res.perRank[0].Phases.Total()
		for _, p := range s.res.perRank {
			lo, hi = min(lo, p.Phases.Total()), max(hi, p.Phases.Total())
		}
		skew += hi - lo
	}
	iterS := per(sumOf(walls))
	m["engine.iter_samples"] = metric{n, "count"}
	m["engine.iter_s"] = metric{iterS, "s"}
	m["engine.iter_p50_s"] = metric{quantile(walls, 0.5), "s"}
	m["engine.iter_p90_s"] = metric{quantile(walls, 0.9), "s"}
	m["engine.forward_s"] = metric{per(sum.Phases.Forward), "s"}
	m["engine.backward_s"] = metric{per(sum.Phases.Backward), "s"}
	m["engine.update_s"] = metric{per(sum.Phases.Update), "s"}
	m["engine.update_compute_s"] = metric{per(sum.UpdateComputeTime), "s"}
	m["engine.bytes_read_per_iter"] = metric{per(sum.BytesRead), "B/iter"}
	m["engine.bytes_written_per_iter"] = metric{per(sum.BytesWritten), "B/iter"}
	m["engine.bytes_per_param"] = metric{ratio(sum.BytesRead+sum.BytesWritten, float64(sum.ParamsUpdated)), "B/param"}
	m["engine.plan_flips"] = metric{per(flips), "1/iter"}
	m["engine.misplaced_subgroups"] = metric{per(misplaced), "count"}
	// Migrator and retry counters are deltas over the whole window.
	all := float64(len(w.iters))
	m["engine.migrations"] = metric{ratio(float64(w.mig1.Moves-w.mig0.Moves), all), "1/iter"}
	m["engine.migrated_bytes"] = metric{ratio(float64(w.mig1.Bytes-w.mig0.Bytes), all), "B/iter"}
	m["engine.migrations_abandoned"] = metric{ratio(float64(w.mig1.Abandoned-w.mig0.Abandoned), all), "1/iter"}
	m["engine.integrity_retries"] = metric{float64(w.retries), "count"}

	// Attribution: inside each traced iteration span, the time a tier
	// transfer was in flight, the rest of the time the BatchGradFn ran,
	// and what neither covers — the engine's own exposed time (kernels,
	// marshalling, lock waits, pipeline stalls). The three partition the
	// iteration, so they sum to engine.iter_s.
	var covered, gradfn, self time.Duration
	isTier := func(s span) bool { return s.kind == kindTier }
	isBusy := func(s span) bool { return s.kind == kindTier || s.kind == kindGradFn }
	var roots []span // the iteration spans, lead-in first
	var restore span
	for _, s := range spans {
		switch s.kind {
		case kindIter:
			roots = append(roots, s)
		case kindRestore:
			restore = s
		}
	}
	sort.Slice(roots, func(a, b int) bool { return roots[a].start < roots[b].start })
	counted := time.Duration(math.MaxInt64) // when the first traced iteration starts
	if len(roots) > 1 {
		roots = roots[1:]
		counted = roots[0].start
	} else {
		roots = nil
	}
	for _, root := range roots {
		win := interval{root.start, root.end}
		c := unionLen(clip(spans, win, isTier))
		b := unionLen(clip(spans, win, isBusy))
		covered += c
		gradfn += b - c
		self += (root.end - root.start) - b
	}
	m["storage.covered_s"] = metric{per(covered.Seconds()), "s"}
	m["engine.gradfn_s"] = metric{per(gradfn.Seconds()), "s"}
	m["engine.self_s"] = metric{per(self.Seconds()), "s"}

	// hostcache, placement.
	subgroups := 0
	for _, e := range r.engines() {
		subgroups += e.Subgroups()
	}
	order := hostcache.Alternating
	if r.wl.baseline {
		order = hostcache.Sequential
	}
	perRankSG := subgroups / r.wl.ranks
	m["hostcache.hit_ratio"] = metric{ratio(float64(sum.CacheHits), float64(sum.CacheHits+sum.CacheMisses)), "ratio"}
	m["hostcache.expected_hit_ratio"] = metric{ratio(float64(hostcache.ExpectedHits(order, perRankSG, hostCacheSlots)), float64(perRankSG)), "ratio"}
	m["placement.nvme_share_mean"] = metric{per(nvmeShare), "ratio"}
	m["placement.split_error"] = metric{per(splitErr), "ratio"}

	// aio: what Iteration.ClassIO publishes per priority class.
	for _, c := range aio.Classes() {
		cio := sum.ClassIO[c.String()]
		m["aio."+c.String()+".ops"] = metric{per(float64(cio.Ops)), "1/iter"}
		m["aio."+c.String()+".queue_delay_s"] = metric{per(cio.QueueDelay), "s/iter"}
		m["aio."+c.String()+".transfer_s"] = metric{per(cio.Transfer), "s/iter"}
	}
	m["aio.effective_io_mbps"] = metric{sum.EffectiveIO() / 1e6, "MB/s"}

	// storage: one row of counters per tier, from the spans of the traced
	// iterations and of the checkpoints between them (amortised); the
	// final restore is a one-off and is left out.
	for _, name := range tierNames {
		var readOps, vecReads, readBytes, writeOps, writeBytes, deleteOps, failedOps float64
		var reads, writes []interval
		for _, s := range spans {
			if s.kind != kindTier || s.layer != name || s.start < counted || (restore.id != 0 && s.parent == restore.id) {
				continue
			}
			if s.failed {
				failedOps++
			}
			switch {
			case s.isRead():
				readOps++
				readBytes += float64(s.bytes)
				reads = append(reads, interval{s.start, s.end})
				if s.op == "ReadVec" {
					vecReads++
				}
			case s.op == "Write":
				writeOps++
				writeBytes += float64(s.bytes)
				writes = append(writes, interval{s.start, s.end})
			case s.op == "Delete":
				deleteOps++
			}
		}
		p := "storage." + name + "."
		m[p+"read_ops"] = metric{per(readOps), "1/iter"}
		m[p+"vec_reads"] = metric{per(vecReads), "1/iter"}
		m[p+"read_bytes"] = metric{per(readBytes), "B/iter"}
		m[p+"read_busy_s"] = metric{per(unionLen(reads).Seconds()), "s/iter"}
		m[p+"write_ops"] = metric{per(writeOps), "1/iter"}
		m[p+"write_bytes"] = metric{per(writeBytes), "B/iter"}
		m[p+"write_busy_s"] = metric{per(unionLen(writes).Seconds()), "s/iter"}
		m[p+"delete_ops"] = metric{per(deleteOps), "1/iter"}
		m[p+"failed_ops"] = metric{per(failedOps), "1/iter"}
	}

	// tiercodec: raw bytes the engine moved per byte the devices saw.
	wire := sum.WireBytesRead + sum.WireBytesWritten
	m["tiercodec.ratio"] = metric{ratio(sum.BytesRead+sum.BytesWritten, wire), "ratio"}
	m["tiercodec.wire_bytes_per_iter"] = metric{per(wire), "B/iter"}

	// tierlock, train: contention between ranks.
	for _, name := range []string{"nvme", "pfs"} {
		m["tierlock."+name+".grants"] = metric{ratio(float64(w.lock1[name].Grants-w.lock0[name].Grants), all), "1/iter"}
		m["tierlock."+name+".wait_s"] = metric{ratio((w.lock1[name].WaitTotal - w.lock0[name].WaitTotal).Seconds(), all), "s/iter"}
	}
	m["train.rank_skew_s"] = metric{per(skew), "s"}

	// checkpoint.
	var stall, flushed, savings float64
	for i, man := range w.mans {
		stall += w.ckpts[i].Seconds()
		savings += man.Savings()
		for _, e := range man.Entries {
			if !e.PreStaged {
				flushed += float64(e.Bytes)
			}
		}
	}
	nck := float64(len(w.mans))
	m["checkpoint.stall_s"] = metric{ratio(stall, nck), "s"}
	m["checkpoint.write_bytes"] = metric{ratio(flushed, nck), "B"}
	m["checkpoint.prestaged_ratio"] = metric{ratio(savings, nck), "ratio"}
	restoreRead := unionLen(clip(spans, interval{restore.start, restore.end}, func(s span) bool { return s.kind == kindTier && s.isRead() }))
	m["checkpoint.restore_s"] = metric{restoreWall.Seconds(), "s"}
	m["checkpoint.restore_read_s"] = metric{restoreRead.Seconds(), "s"}

	// mem: allocator and collector work over the whole window.
	m["mem.alloc_bytes_per_iter"] = metric{ratio(float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc), all), "B/iter"}
	m["mem.allocs_per_iter"] = metric{ratio(float64(w.mem1.Mallocs-w.mem0.Mallocs), all), "1/iter"}
	m["mem.gc_pause_s"] = metric{ratio(float64(w.mem1.PauseTotalNs-w.mem0.PauseTotalNs)/1e9, all), "s/iter"}

	// trace: traced over untraced iterations of this run.
	var offWall float64
	for _, s := range off {
		offWall += s.wall.Seconds()
	}
	m["trace.overhead_ratio"] = metric{ratio(iterS, ratio(offWall, float64(len(off)))), "ratio"}
}

func sumOf(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// probes fills source (d): each probe calls one layer's public functions
// directly, outside the iteration loop, on a subgroup of the workload's
// size, repeating until its time budget is spent. A probe's number moves
// only when that layer's code does.
func probes(m map[string]metric, o runOpts, in *inputs) error {
	budget := time.Duration(o.sc.probeMillis) * time.Millisecond
	n := int(o.sc.subgroupParams(o.wl))
	var firstErr error
	check := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// timeOp is the median seconds of one call of f within the budget.
	timeOp := func(f func()) float64 {
		var d []float64
		for start := wall.Now(); len(d) < 3 || wall.Now().Sub(start) < budget; {
			t := wall.Now()
			f()
			d = append(d, wall.Now().Sub(t).Seconds())
		}
		return median(d)
	}
	rate := func(units float64, f func()) float64 { return ratio(units, timeOp(f)) }

	// A real subgroup: seed-derived parameters and two Adam steps of
	// moments, so the codec sees the bytes training produces.
	sg := subgroup.New(0, n)
	for i := range sg.State.Params {
		sg.State.Params[i] = in.initParam(0, int64(i))
	}
	g32 := make([]float32, n)
	h := optim.DefaultHyper()
	for t := 1; t <= 2; t++ {
		in.fillGrad(0, t, 0, g32)
		fp16.Encode(sg.Grads16, g32)
		optim.StepFP16(sg.State, sg.Grads16, h, t)
	}
	obj := make([]byte, subgroup.StateBytes(n))
	mb := float64(len(obj)) / 1e6
	ctx := context.Background()

	// optim, fp16, subgroup, kernpool: the kernels.
	t := 3
	m["optim.probe_adam_serial_mparams_per_s"] = metric{rate(float64(n)/1e6, func() { optim.StepFP16(sg.State, sg.Grads16, h, t); t++ }), "Mparam/s"}
	pool := kernpool.New(min(runtime.GOMAXPROCS(0), 16)) // the engine's auto-tuned width
	m["optim.probe_adam_pool_mparams_per_s"] = metric{rate(float64(n)/1e6, func() { optim.StepFP16On(pool, sg.State, sg.Grads16, h, t); t++ }), "Mparam/s"}
	m["kernpool.probe_dispatch_us"] = metric{1e6 * timeOp(func() { pool.Run(2*kernpool.ChunkElems, func(int, int) {}) }), "us"}
	pool.Close()
	m["fp16.probe_encode_mbps"] = metric{rate(4*float64(n)/1e6, func() { fp16.Encode(sg.Grads16, g32) }), "MB/s"}
	m["fp16.probe_decode_mbps"] = metric{rate(4*float64(n)/1e6, func() { fp16.Decode(g32, sg.Grads16) }), "MB/s"}
	m["subgroup.probe_marshal_mbps"] = metric{rate(mb, func() { _, err := sg.Marshal(obj, false); check(err) }), "MB/s"}
	m["subgroup.probe_unmarshal_mbps"] = metric{rate(mb, func() { check(sg.Unmarshal(obj)) }), "MB/s"}

	// aio: submit-to-done of a 4 KiB read on an idle in-memory tier.
	mem := storage.NewMemTier("probe")
	small := make([]byte, 4096)
	check(mem.Write(ctx, "k", small))
	ae := aio.New(mem, aio.Config{})
	m["aio.probe_op_overhead_us"] = metric{1e6 * timeOp(func() { check(ae.ReadSync("k", small)) }), "us"}
	ae.Close()

	// tiercodec: the workload's codec (flate+crc where it has none) over
	// an in-memory tier, so only the codec's CPU is timed.
	spec := o.wl.codec
	if !spec.Enabled() {
		spec = flateCRC
	}
	ct, err := tiercodec.New(storage.NewMemTier("probe"), spec)
	if err != nil {
		return err
	}
	m["tiercodec.probe_encode_mbps"] = metric{rate(mb, func() { check(ct.Write(ctx, "k", obj)) }), "MB/s"}
	m["tiercodec.probe_decode_mbps"] = metric{rate(mb, func() { check(ct.Read(ctx, "k", obj)) }), "MB/s"}

	// storage: an unthrottled FileTier in the run's directory.
	ft, err := storage.NewFileTier("probe", filepath.Join(o.dir, "probe-"+o.wl.name))
	if err != nil {
		return err
	}
	defer os.RemoveAll(ft.Dir())
	defer ft.Close()
	keys := []string{"a", "b", "c", "d"}
	bufs := make([][]byte, len(keys))
	for i := range bufs {
		bufs[i] = make([]byte, len(obj))
	}
	k := 0
	m["storage.probe_file_write_mbps"] = metric{rate(mb, func() { check(ft.Write(ctx, keys[k%len(keys)], obj)); k++ }), "MB/s"}
	for _, key := range keys {
		check(ft.Write(ctx, key, obj))
	}
	m["storage.probe_file_read_mbps"] = metric{rate(mb, func() { check(ft.Read(ctx, keys[k%len(keys)], obj)); k++ }), "MB/s"}
	m["storage.probe_file_readvec_mbps"] = metric{rate(mb*float64(len(keys)), func() { check(ft.ReadVec(ctx, keys, bufs)) }), "MB/s"}
	return firstErr
}
