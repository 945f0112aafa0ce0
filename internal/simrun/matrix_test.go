package simrun

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/datastates/mlpoffload/internal/cluster"
	"github.com/datastates/mlpoffload/internal/model"
)

// ciOpts is the CI-sized matrix: enough iterations for every mechanism
// (slowdown -> replan -> eviction moves needs a post-replan iteration)
// while staying fast under -race -count=2.
var ciOpts = MatrixOptions{Iterations: 4, Warmup: 1, CheckpointJobs: 32}

var update = flag.Bool("update", false, "rewrite testdata/matrix_ci.golden from the current reports")

// TestMatrixCells runs the full matrix at CI size, requires the JSON
// reports to match testdata/matrix_ci.golden byte for byte (regenerate
// with -update after an intended change), and checks each cell's physics:
// the mechanism a scenario exists to show must be visible in its report.
func TestMatrixCells(t *testing.T) {
	reps, err := RunMatrix(nil, ciOpts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(reps, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	const golden = "testdata/matrix_ci.golden"
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want, err := os.ReadFile(golden); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(got, want) {
		t.Errorf("CI-sized matrix differs from %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
	if len(reps) < 6 {
		t.Fatalf("matrix produced %d cells, want >= 6", len(reps))
	}
	byName := make(map[string]*CellReport, len(reps))
	for _, rep := range reps {
		if !strings.HasPrefix(rep.Benchmark, "simmatrix-") {
			t.Errorf("report name %q lacks simmatrix- prefix", rep.Benchmark)
		}
		if len(rep.Results) < 2 {
			t.Errorf("%s: %d results, want >= 2", rep.Benchmark, len(rep.Results))
		}
		for _, r := range rep.Results {
			if r.IterSec <= 0 {
				t.Errorf("%s/%s: iter_sec = %g, want > 0", rep.Benchmark, r.Variant, r.IterSec)
			}
		}
		if rep.Speedup <= 0 {
			t.Errorf("%s: speedup = %g, want > 0", rep.Benchmark, rep.Speedup)
		}
		byName[rep.Config.Scenario] = rep
	}

	// Baseline: the engine-true approach must beat DeepSpeed ZeRO-3.
	if rep := byName["baseline-40b"]; rep != nil && rep.Speedup <= 1 {
		t.Errorf("baseline-40b: engine speedup over DeepSpeed = %g, want > 1", rep.Speedup)
	}

	// Codec: wire bytes must shrink by the ratio; off-variant wire == raw.
	for _, name := range []string{"codec-40b", "codec-280b"} {
		rep := byName[name]
		if rep == nil {
			t.Errorf("%s missing", name)
			continue
		}
		off, on := rep.Results[0], rep.Results[1]
		if off.WireReadGB != off.ReadGB {
			t.Errorf("%s/codec-off: wire %g GB != raw %g GB", name, off.WireReadGB, off.ReadGB)
		}
		if on.WireReadGB >= on.ReadGB {
			t.Errorf("%s/codec-on: wire %g GB not below raw %g GB", name, on.WireReadGB, on.ReadGB)
		}
		if on.CompressionRatio <= 1 {
			t.Errorf("%s/codec-on: compression_ratio = %g, want > 1", name, on.CompressionRatio)
		}
	}

	// Checkpoint storm: classed priority must keep the fetch tail below
	// FIFO's while the storm jobs still make progress (aging bound).
	if rep := byName["ckpt-storm-pfs"]; rep != nil {
		fifo, classed := rep.Results[0], rep.Results[1]
		if fifo.CheckpointOps == 0 || classed.CheckpointOps == 0 {
			t.Errorf("ckpt-storm-pfs: checkpoint ops fifo=%d classed=%d, want > 0",
				fifo.CheckpointOps, classed.CheckpointOps)
		}
		if rep.Speedup <= 1 {
			t.Errorf("ckpt-storm-pfs: classed fetch p95 %.3fms not below fifo %.3fms",
				classed.FetchP95MS, fifo.FetchP95MS)
		}
	}

	// Coalescing: with per-op overhead at iobench scale, batch=8 must beat
	// batch=1 on the overhead-dominated update phase.
	if rep := byName["coalesce-microfetch"]; rep != nil && rep.Speedup <= 1 {
		t.Errorf("coalesce-microfetch: batch-8 speedup = %g, want > 1", rep.Speedup)
	}
}

// TestMatrixCellDeterministic runs one full cell twice and requires
// bit-identical reports.
func TestMatrixCellDeterministic(t *testing.T) {
	sc, err := ScenarioByName("bursty-pfs-40b")
	if err != nil {
		t.Fatal(err)
	}
	a, err := sc.Run(ciOpts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Run(ciOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two runs of %s differ:\n%+v\n%+v", sc.Name, a, b)
	}
}

// TestEventTraceDeterministic exercises priority + replanning + codec in
// one config with event tracing on: two runs must produce identical
// traces.
func TestEventTraceDeterministic(t *testing.T) {
	m, err := model.ByName("40B")
	if err != nil {
		t.Fatal(err)
	}
	ap := codecApproach(EngineTrue(), cluster.Calibration{})
	cfg := Config{
		Testbed: cluster.Testbed1(), Model: m, Approach: ap,
		Iterations: 4, Warmup: 1,
		SlowdownFactor: 0.15, SlowdownTier: 0, SlowdownAt: 2,
		TraceEvents: true,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.EventTrace) == 0 {
		t.Fatal("TraceEvents produced no events")
	}
	if !reflect.DeepEqual(a.EventTrace, b.EventTrace) {
		n := min(len(a.EventTrace), len(b.EventTrace))
		for i := 0; i < n; i++ {
			if a.EventTrace[i] != b.EventTrace[i] {
				t.Fatalf("trace diverges at event %d:\n  %s\n  %s", i, a.EventTrace[i], b.EventTrace[i])
			}
		}
		t.Fatalf("trace lengths differ: %d vs %d", len(a.EventTrace), len(b.EventTrace))
	}
	// The slowdown must have moved the plan: the same run on healthy
	// tiers ends on another split.
	healthy := cfg
	healthy.SlowdownFactor = 0
	healthy.TraceEvents = false
	h, err := Run(healthy)
	if err != nil {
		t.Fatal(err)
	}
	if a.PlanRatio == h.PlanRatio {
		t.Errorf("the slowdown left the plan at %s", a.PlanRatio)
	}
}

// TestScenarioByNameUnknown covers the error paths.
func TestScenarioByNameUnknown(t *testing.T) {
	if _, err := ScenarioByName("nope"); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := RunMatrix([]string{"nope"}, ciOpts); err == nil {
		t.Error("RunMatrix with unknown name accepted")
	}
}

// TestSelectScenarios: selecting one cell by name yields exactly that
// cell, whatever its position in the matrix; an unknown name anywhere in
// the list is an error; an empty list selects every cell.
func TestSelectScenarios(t *testing.T) {
	all := Scenarios()
	for _, s := range all {
		t.Run(s.Name, func(t *testing.T) {
			got, err := selectScenarios([]string{s.Name})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0].Name != s.Name {
				names := make([]string, len(got))
				for i, g := range got {
					names[i] = g.Name
				}
				t.Errorf("selected %v, want [%s]", names, s.Name)
			}
		})
	}
	if _, err := selectScenarios([]string{all[0].Name, "nope"}); err == nil {
		t.Error("unknown name after a known one accepted")
	}
	if got, err := selectScenarios(nil); err != nil || len(got) != len(all) {
		t.Errorf("empty selection: %d cells, err %v; want all %d", len(got), err, len(all))
	}
}
