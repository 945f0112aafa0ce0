package experiments

import (
	"fmt"
	"strings"

	"github.com/datastates/mlpoffload/internal/cluster"
	"github.com/datastates/mlpoffload/internal/metrics"
	"github.com/datastates/mlpoffload/internal/model"
	"github.com/datastates/mlpoffload/internal/simrun"
)

// ExtAdaptive is an extension experiment beyond the paper's figures,
// implementing the §3.3 / future-work scenario: the shared PFS loses most
// of its bandwidth to external jobs mid-run. Static placement keeps
// sending the microbenchmark-determined share of subgroups to the now-slow
// path; adaptive placement re-fits Eq. 1 from EWMA-observed bandwidths and
// its eviction flushes move load to the NVMe.
func ExtAdaptive(o Options) (string, error) {
	o = o.normalize()
	if o.Iterations < 8 {
		o.Iterations = 8
		o.Warmup = 4
	}
	m, err := model.ByName("40B")
	if err != nil {
		return "", err
	}
	t := metrics.NewTable("Extension: adaptive placement under PFS bandwidth loss (40B, Testbed-1, PFS at 20% from iter 2)",
		"placement", "iter time clean (s)", "iter time degraded (s)", "slowdown")
	for _, adaptive := range []bool{false, true} {
		ap := simrun.MLPOffload()
		ap.AdaptivePlacement = adaptive
		clean, err := simrun.Run(simrun.Config{
			Testbed: cluster.Testbed1(), Model: m, Approach: ap,
			Iterations: o.Iterations, Warmup: o.Warmup, TraceIteration: -1,
		})
		if err != nil {
			return "", err
		}
		degraded, err := simrun.Run(simrun.Config{
			Testbed: cluster.Testbed1(), Model: m, Approach: ap,
			Iterations: o.Iterations, Warmup: o.Warmup, TraceIteration: -1,
			SlowdownFactor: 0.2, SlowdownTier: 1, SlowdownAt: 2,
		})
		if err != nil {
			return "", err
		}
		name := "static (microbenchmark split)"
		if adaptive {
			name = "adaptive (EWMA re-planned)"
		}
		t.AddRow(name,
			fmt.Sprintf("%.1f", clean.IterTime()),
			fmt.Sprintf("%.1f", degraded.IterTime()),
			fmt.Sprintf("%.2fx", degraded.IterTime()/clean.IterTime()))
	}
	t.AddNote("adaptive placement bounds the damage of shared-tier fluctuation (paper future work)")
	return t.Render(), nil
}

// ExtSubgroup is the subgroup-granularity sensitivity study behind the
// paper's methodology choice (§4.1): "we use a subgroup size of 100
// million trainable parameters as opposed to DeepSpeed's default size of
// 1 billion, which allows better load balancing for our approach". Smaller
// subgroups overlap fetch/update/flush more finely and split more evenly
// across tiers; too small and per-op overheads dominate (not modeled:
// the simulator shows the plateau).
func ExtSubgroup(o Options) (string, error) {
	o = o.normalize()
	m, err := model.ByName("40B")
	if err != nil {
		return "", err
	}
	t := metrics.NewTable("Extension: subgroup size sensitivity (40B, MLP-Offload, Testbed-1)",
		"subgroup params", "subgroups/worker", "iter time (s)", "update (s)", "placement")
	for _, sg := range []int64{50e6, 100e6, 250e6, 500e6, 1e9} {
		r, err := simrun.Run(simrun.Config{
			Testbed: cluster.Testbed1(), Model: m, Approach: simrun.MLPOffload(),
			SubgroupParams: sg,
			Iterations:     o.Iterations, Warmup: o.Warmup, TraceIteration: -1,
		})
		if err != nil {
			return "", err
		}
		t.AddRow(
			fmt.Sprintf("%dM", sg/1e6),
			fmt.Sprintf("%d", int((10e9+sg-1)/sg)),
			fmt.Sprintf("%.1f", r.IterTime()),
			fmt.Sprintf("%.1f", r.Mean.Phases.Update),
			r.PlanRatio)
	}
	t.AddNote("the paper picks 100M: fine enough to balance multi-path I/O, coarse enough to amortize per-op costs")
	return t.Render(), nil
}

// ExtMatrix renders the scenario matrix (internal/simrun, cmd/simmatrix):
// the beyond-the-paper regimes — bursty PFS bandwidth, the tier codec at
// 40B and 280B, co-tenant checkpoint storms, and vectored-fetch economics
// — as one table per cell, matching the reports CI tracks under
// simmatrix-* names.
func ExtMatrix(o Options) (string, error) {
	o = o.normalize()
	// Mid-run events (PFS pressure) land around iteration 2
	// and need post-replan iterations to show their mechanism — same
	// floor as ExtAdaptive.
	if o.Iterations < 8 {
		o.Iterations = 8
		o.Warmup = 4
	}
	reps, err := simrun.RunMatrix(nil, simrun.MatrixOptions{
		Iterations: o.Iterations, Warmup: o.Warmup,
	})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, rep := range reps {
		t := metrics.NewTable(
			fmt.Sprintf("Extension matrix %s: %s on %s, %d node(s)",
				rep.Config.Scenario, rep.Config.Model, rep.Config.Testbed, rep.Config.Nodes),
			"variant", "iter (s)", "update (s)", "read GB", "wire GB",
			"fetch p95 (ms)", "ckpt ops")
		for _, r := range rep.Results {
			t.AddRow(r.Variant,
				fmt.Sprintf("%.3f", r.IterSec),
				fmt.Sprintf("%.3f", r.UpdateSec),
				fmt.Sprintf("%.2f", r.ReadGB),
				fmt.Sprintf("%.2f", r.WireReadGB),
				fmt.Sprintf("%.3f", r.FetchP95MS),
				fmt.Sprintf("%d", r.CheckpointOps))
		}
		t.AddNote("speedup %.2fx (%s)", rep.Speedup, rep.SpeedupMetric)
		sb.WriteString(t.Render())
		sb.WriteString("\n")
	}
	return sb.String(), nil
}
