// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) plus the motivating characterization (§3.1). Each
// experiment is a named runner producing an aligned text table whose rows
// correspond to the paper's bars/series, so paper-vs-reproduction
// comparison is a column-by-column read.
//
// The experiment IDs match the paper artifacts: tab1, tab2, fig1, fig3,
// fig4, fig5, fig7, fig8, fig9, fig10, fig11, fig12, fig13, fig14, fig15.
package experiments

import (
	"fmt"
	"strings"

	"github.com/datastates/mlpoffload/internal/cluster"
	"github.com/datastates/mlpoffload/internal/model"
	"github.com/datastates/mlpoffload/internal/simrun"
)

// Options tunes experiment execution.
type Options struct {
	// Iterations and Warmup per simulated run (paper: 10 and 2). Quick
	// runs (benchmarks, CI) may lower them.
	Iterations int
	Warmup     int
}

// DefaultOptions mirrors the paper's methodology.
func DefaultOptions() Options { return Options{Iterations: 10, Warmup: 2} }

// Quick returns reduced-iteration options for benchmarks.
func Quick() Options { return Options{Iterations: 3, Warmup: 1} }

func (o Options) normalize() Options {
	if o.Iterations <= 0 {
		o.Iterations = 10
	}
	if o.Warmup < 0 || o.Warmup >= o.Iterations {
		o.Warmup = o.Iterations / 5
	}
	return o
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (string, error)
}

// All returns the registry in paper order.
func All() []Experiment {
	return []Experiment{
		{"tab1", "Table 1: testbed configurations", Tab1},
		{"tab2", "Table 2: model configurations", Tab2},
		{"fig1", "Figure 1: model vs GPU memory growth", Fig1},
		{"fig3", "Figure 3: fraction of update time in disk I/O", Fig3},
		{"fig4", "Figure 4: local vs remote I/O bandwidth under concurrency", Fig4},
		{"fig5", "Figure 5: per-subgroup effective R/W throughput", Fig5},
		{"fig7", "Figure 7: iteration breakdown vs model size", Fig7},
		{"fig8", "Figure 8: update throughput vs model size", Fig8},
		{"fig9", "Figure 9: effective I/O throughput vs model size", Fig9},
		{"fig10", "Figure 10: optimizer state distribution across tiers", Fig10},
		{"fig11", "Figure 11: weak scaling iteration time", Fig11},
		{"fig12", "Figure 12: weak scaling update throughput", Fig12},
		{"fig13", "Figure 13: gradient accumulation batch-size sweep", Fig13},
		{"fig14", "Figure 14: ablation on node-local NVMe", Fig14},
		{"fig15", "Figure 15: ablation on NVMe + PFS", Fig15},
		{"ext-adaptive", "Extension: adaptive placement under PFS pressure", ExtAdaptive},
		{"ext-subgroup", "Extension: subgroup size sensitivity", ExtSubgroup},
		{"ext-matrix", "Extension: scenario matrix (bursty tiers, failure, codec, storms, coalescing)", ExtMatrix},
	}
}

// ByID resolves an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
}

// IDs lists all experiment IDs in order.
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}

// runPair executes DS and MLP for one model on a testbed.
func runPair(tb cluster.Testbed, mdl string, nodes int, o Options) (ds, mlp *simrun.Result, err error) {
	m, err := model.ByName(mdl)
	if err != nil {
		return nil, nil, err
	}
	base := simrun.Config{
		Testbed: tb, Model: m, Nodes: nodes,
		Iterations: o.Iterations, Warmup: o.Warmup, TraceIteration: -1,
	}
	cfgDS := base
	cfgDS.Approach = simrun.DeepSpeedZeRO3()
	if ds, err = simrun.Run(cfgDS); err != nil {
		return nil, nil, err
	}
	cfgMLP := base
	cfgMLP.Approach = simrun.MLPOffload()
	if mlp, err = simrun.Run(cfgMLP); err != nil {
		return nil, nil, err
	}
	return ds, mlp, nil
}

// scalingModels is the Figure 7-10 sweep.
var scalingModels = []string{"40B", "52B", "70B", "100B", "120B"}

// weakScalingCases is the Figure 11/12 sweep on Testbed-2.
var weakScalingCases = []struct {
	Model string
	Nodes int
	GPUs  int
}{
	{"40B", 1, 4}, {"70B", 2, 8}, {"100B", 3, 12}, {"130B", 4, 16}, {"280B", 8, 32},
}
