package simrun

import (
	"testing"

	"github.com/datastates/mlpoffload/internal/cluster"
	"github.com/datastates/mlpoffload/internal/model"
)

func run40B(t *testing.T, ap Approach) *Result {
	t.Helper()
	m, err := model.ByName("40B")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(Config{
		Testbed: cluster.Testbed1(), Model: m, Approach: ap,
		Iterations: 4, Warmup: 1, TraceIteration: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPaperApproachesNeverQueue pins the paper's runtimes on the one
// pipeline. Their schedulers give every op they can have outstanding its
// own service slot, so no op ever waits in a queue — each transfer starts
// the moment it is issued, as in the runtimes the paper measures — and the
// 40B Testbed-1 figures are pinned to the last bit.
func TestPaperApproachesNeverQueue(t *testing.T) {
	aps := append([]Approach{MLPOffload()}, AblationLadderNVMe()...) // [1] is DeepSpeed ZeRO-3
	aps = append(aps, AblationLadderMultiPath()...)
	results := make([]*Result, len(aps))
	for i, ap := range aps {
		results[i] = run40B(t, ap)
		if len(results[i].Classes) == 0 {
			t.Errorf("%s: no scheduler class moved any op", ap.Name)
		}
		for class, cs := range results[i].Classes {
			if cs.QueueDelay != 0 {
				t.Errorf("%s: class %s queued %gs", ap.Name, class, cs.QueueDelay)
			}
		}
	}
	for _, pin := range []struct {
		res          *Result
		iter, update float64
	}{
		{results[1], 270.74191929939894, 232.68001590970636},
		{results[0], 77.43088911088917, 74.66666666666634},
	} {
		if got := pin.res.IterTime(); got != pin.iter {
			t.Errorf("%s: iteration %.17g s, want %.17g", pin.res.Config.Approach.Name, got, pin.iter)
		}
		if got := pin.res.Mean.Phases.Update; got != pin.update {
			t.Errorf("%s: update %.17g s, want %.17g", pin.res.Config.Approach.Name, got, pin.update)
		}
	}

	// The engine-true configuration (bounded I/O workers, migration,
	// coalescing) must not be more than 10% slower than MLP-Offload with
	// class priority alone.
	prio := MLPOffload()
	prio.PriorityIO = true
	viaPrio := run40B(t, prio)
	if engine := run40B(t, EngineTrue()); engine.IterTime() > viaPrio.IterTime()*1.10 {
		t.Errorf("engine-true config %.2fs is >10%% slower than MLP-Offload with priority %.2fs",
			engine.IterTime(), viaPrio.IterTime())
	}
}

func TestHeadlineSpeedup(t *testing.T) {
	// The paper's headline: MLP-Offload runs iterations ~2.5x faster than
	// DeepSpeed ZeRO-3. Accept 2x-4.5x.
	ds := run40B(t, DeepSpeedZeRO3())
	mlp := run40B(t, MLPOffload())
	speedup := ds.IterTime() / mlp.IterTime()
	if speedup < 2.0 || speedup > 4.5 {
		t.Errorf("speedup = %.2fx (DS %.1fs vs MLP %.1fs), want ~2.5x",
			speedup, ds.IterTime(), mlp.IterTime())
	}
}

func TestUpdatePhaseDominatesBaseline(t *testing.T) {
	// Paper §3.1: at 40B the update phase is ~89% of the iteration and
	// forward is negligible.
	ds := run40B(t, DeepSpeedZeRO3())
	p := ds.Mean.Phases
	if frac := p.Update / p.Total(); frac < 0.75 {
		t.Errorf("update fraction = %.2f, want > 0.75", frac)
	}
	if p.Forward > 0.05*p.Total() {
		t.Errorf("forward = %.1fs of %.1fs — should be negligible", p.Forward, p.Total())
	}
}

func TestBackwardAcceleration(t *testing.T) {
	// Paper: backward accelerated ~13.5x by skipping the FP32 gradient
	// flush. Accept anything >= 5x.
	ds := run40B(t, DeepSpeedZeRO3())
	mlp := run40B(t, MLPOffload())
	ratio := ds.Mean.Phases.Backward / mlp.Mean.Phases.Backward
	if ratio < 5 {
		t.Errorf("backward speedup = %.1fx, want >= 5x", ratio)
	}
}

func TestForwardAnchor(t *testing.T) {
	// Calibration anchor: 40B forward ≈ 0.6s on Testbed-1.
	ds := run40B(t, DeepSpeedZeRO3())
	f := ds.Mean.Phases.Forward
	if f < 0.4 || f > 0.8 {
		t.Errorf("forward = %.2fs, want ~0.6s", f)
	}
}

func TestAblationLaddersMonotone(t *testing.T) {
	m, _ := model.ByName("70B")
	runOne := func(ap Approach) float64 {
		r, err := Run(Config{
			Testbed: cluster.Testbed1(), Model: m, Approach: ap,
			Iterations: 3, Warmup: 1, TraceIteration: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.IterTime()
	}
	prev := runOne(DeepSpeedZeRO3())
	for _, ap := range AblationLadderNVMe()[1:] {
		cur := runOne(ap)
		if cur >= prev {
			t.Errorf("NVMe ladder not monotone at %q: %.1f -> %.1f", ap.Name, prev, cur)
		}
		prev = cur
	}
	prev = runOne(AblationLadderMultiPath()[0])
	for _, ap := range AblationLadderMultiPath()[1:] {
		cur := runOne(ap)
		if cur >= prev {
			t.Errorf("multi-path ladder not monotone at %q: %.1f -> %.1f", ap.Name, prev, cur)
		}
		prev = cur
	}
}

func TestCPUOnly20B(t *testing.T) {
	// Figure 3 anchor: the 20B model's update runs from host memory in
	// ~2.3s with ~100% compute (no disk I/O).
	r, err := Run(Config{
		Testbed: cluster.Testbed1(), Model: model.Baseline20B(),
		Approach: DeepSpeedZeRO3(), CPUOnly: true,
		Iterations: 3, Warmup: 1, TraceIteration: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	upd := r.Mean.Phases.Update
	if upd < 1.5 || upd > 4 {
		t.Errorf("20B CPU update = %.2fs, want ~2.5s", upd)
	}
	if r.Mean.BytesRead != 0 || r.Mean.BytesWritten != 0 {
		t.Error("CPU-only run touched storage tiers")
	}
	if frac := DiskIOFraction(r.Mean, 4); frac > 0.2 {
		t.Errorf("disk fraction = %.2f, want ~0", frac)
	}
}

func TestDiskIOFractionHighWhenOffloaded(t *testing.T) {
	// Figure 3: with SSD offloading ~99% of the update is I/O.
	ds := run40B(t, DeepSpeedZeRO3())
	if frac := DiskIOFraction(ds.Mean, 4); frac < 0.9 {
		t.Errorf("disk I/O fraction = %.2f, want > 0.9", frac)
	}
}

func TestTierDistribution(t *testing.T) {
	mlp := run40B(t, MLPOffload())
	tb := mlp.Mean.TierBytes
	if tb["nvme"] <= 0 || tb["pfs"] <= 0 || tb["host"] <= 0 {
		t.Fatalf("distribution = %v; all three tiers should hold state", tb)
	}
	// NVMe:PFS placement should be bandwidth-proportional ~1.5:1
	// (Testbed-1: min BW 5.3 vs 3.6).
	ratio := tb["nvme"] / tb["pfs"]
	if ratio < 1.1 || ratio > 2.2 {
		t.Errorf("nvme:pfs bytes ratio = %.2f, want ~1.5", ratio)
	}
	// Baseline never touches the PFS.
	ds := run40B(t, DeepSpeedZeRO3())
	if ds.Mean.TierBytes["pfs"] != 0 {
		t.Error("baseline placed state on the PFS")
	}
}

func TestCacheHitsOnlyWithAlternating(t *testing.T) {
	ds := run40B(t, DeepSpeedZeRO3())
	if ds.Mean.CacheHits != 0 {
		t.Errorf("sequential baseline got %d cache hits, want 0", ds.Mean.CacheHits)
	}
	mlp := run40B(t, MLPOffload())
	if mlp.Mean.CacheHits == 0 {
		t.Error("alternating order got no cache hits")
	}
}

func TestUpdateThroughputRange(t *testing.T) {
	// Paper Figure 8: DS ~187 Mparams/s, MLP ~432 Mparams/s at 40B.
	ds := run40B(t, DeepSpeedZeRO3())
	mlp := run40B(t, MLPOffload())
	if thru := ds.Mean.UpdateThroughput(); thru < 100 || thru > 300 {
		t.Errorf("DS update throughput = %.0f M/s, want 100-300", thru)
	}
	if thru := mlp.Mean.UpdateThroughput(); thru < 350 || thru > 800 {
		t.Errorf("MLP update throughput = %.0f M/s, want 350-800", thru)
	}
}

func TestGradAccumAmortizes(t *testing.T) {
	// Figure 13: with gradient accumulation the update cost is amortized
	// but MLP-Offload still wins by >= 40%.
	m, _ := model.ByName("40B")
	runBatch := func(ap Approach, accum int) float64 {
		r, err := Run(Config{
			Testbed: cluster.Testbed1(), Model: m, Approach: ap,
			MicroBatch: 8, GradAccumSteps: accum,
			Iterations: 3, Warmup: 1, TraceIteration: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.IterTime()
	}
	ds1 := runBatch(DeepSpeedZeRO3(), 1)
	ds16 := runBatch(DeepSpeedZeRO3(), 16)
	mlp16 := runBatch(MLPOffload(), 16)
	if ds16 <= ds1 {
		t.Errorf("16x accumulation should lengthen the iteration: %.1f vs %.1f", ds16, ds1)
	}
	if gain := ds16 / mlp16; gain < 1.4 {
		t.Errorf("MLP gain at batch 512 = %.2fx, want >= 1.4x", gain)
	}
}

func TestWeakScaling(t *testing.T) {
	// Figure 11/12 shape: on Testbed-2, iteration time per model shrinks
	// (or holds) as nodes grow with model size, and MLP stays ~2x faster.
	cases := []struct {
		model string
		nodes int
	}{
		{"40B", 1}, {"70B", 2}, {"130B", 4},
	}
	var prevDS float64
	for i, c := range cases {
		m, _ := model.ByName(c.model)
		ds, err := Run(Config{
			Testbed: cluster.Testbed2(), Model: m, Nodes: c.nodes,
			Approach: DeepSpeedZeRO3(), Iterations: 3, Warmup: 1, TraceIteration: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		mlp, err := Run(Config{
			Testbed: cluster.Testbed2(), Model: m, Nodes: c.nodes,
			Approach: MLPOffload(), Iterations: 3, Warmup: 1, TraceIteration: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if sp := ds.IterTime() / mlp.IterTime(); sp < 1.4 {
			t.Errorf("%s/%d nodes: speedup %.2fx, want >= 1.4x", c.model, c.nodes, sp)
		}
		if i > 0 && ds.IterTime() > prevDS*1.6 {
			t.Errorf("weak scaling degrades too fast: %.1f -> %.1f", prevDS, ds.IterTime())
		}
		prevDS = ds.IterTime()
	}
}

func TestTraceRecorded(t *testing.T) {
	m, _ := model.ByName("40B")
	r, err := Run(Config{
		Testbed: cluster.Testbed1(), Model: m, Approach: DeepSpeedZeRO3(),
		Iterations: 3, Warmup: 1, TraceIteration: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trace) == 0 {
		t.Fatal("no per-subgroup trace recorded")
	}
	for _, pt := range r.Trace {
		if pt.ReadBW < 0 || pt.WriteBW < 0 || pt.Pos < 0 {
			t.Errorf("bad trace point %+v", pt)
		}
		if pt.ReadBW > cluster.Testbed1().NVMe.ReadBW*1.01 {
			t.Errorf("trace read BW %.2e exceeds device peak", pt.ReadBW)
		}
	}
}

func TestDeterministic(t *testing.T) {
	a := run40B(t, MLPOffload())
	b := run40B(t, MLPOffload())
	if a.IterTime() != b.IterTime() {
		t.Errorf("simulation not deterministic: %.6f vs %.6f", a.IterTime(), b.IterTime())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	tiny := model.Config{Name: "tiny", NominalParams: 100}
	if _, err := Run(Config{Testbed: cluster.Testbed1(), Model: tiny, Nodes: 1000, TraceIteration: -1, Iterations: 2, Warmup: 0}); err == nil {
		t.Error("model too small for worker count accepted")
	}
}

func TestAdaptivePlacementUnderPFSPressure(t *testing.T) {
	// Extension scenario (§3.3 / future work): the PFS loses 80% of its
	// bandwidth mid-run. Adaptive replanning migrates subgroups toward
	// the NVMe and must beat a static microbenchmark split.
	m, _ := model.ByName("40B")
	runOne := func(adaptive bool) float64 {
		ap := MLPOffload()
		ap.AdaptivePlacement = adaptive
		r, err := Run(Config{
			Testbed: cluster.Testbed1(), Model: m, Approach: ap,
			Iterations: 10, Warmup: 4, TraceIteration: -1,
			SlowdownFactor: 0.2, SlowdownTier: 1, SlowdownAt: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Mean over post-degradation, post-adaptation iterations.
		return r.Mean.Phases.Total()
	}
	static := runOne(false)
	adaptive := runOne(true)
	if adaptive >= static {
		t.Errorf("adaptive (%.1fs) should beat static (%.1fs) under PFS pressure", adaptive, static)
	}
}

func TestPFSLoadSlowsStaticPlacement(t *testing.T) {
	m, _ := model.ByName("40B")
	ap := MLPOffload()
	ap.AdaptivePlacement = false
	clean, err := Run(Config{
		Testbed: cluster.Testbed1(), Model: m, Approach: ap,
		Iterations: 4, Warmup: 1, TraceIteration: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Run(Config{
		Testbed: cluster.Testbed1(), Model: m, Approach: ap,
		Iterations: 4, Warmup: 1, TraceIteration: -1,
		SlowdownFactor: 0.2, SlowdownTier: 1, SlowdownAt: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.IterTime() <= clean.IterTime() {
		t.Errorf("PFS pressure had no effect: %.1f vs %.1f", loaded.IterTime(), clean.IterTime())
	}
}
