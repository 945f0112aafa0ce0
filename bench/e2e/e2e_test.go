package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/subgroup"
)

var smoke = scales["smoke"]

// inProcess stands in for spawnChild: the same single run, in the test
// process.
func inProcess(f flags) (result, error) {
	wl, err := workloadByName(f.workload)
	if err != nil {
		return result{}, err
	}
	return runOne(f.opts(wl, scales[f.scale], f.dir))
}

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmokeSetMatchesBenchmarkJSON runs every workload, untraced and
// traced, at smoke scale and holds the output and BENCHMARK.json to each
// other and to the contract's limits.
func TestSmokeSetMatchesBenchmarkJSON(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out", "run.json")
	start := wall.Now()
	if code := run([]string{"-scale", "smoke", "-seed", "1", "-dir", filepath.Join(dir, "tiers"), "-out", out}, inProcess); code != 0 {
		t.Fatalf("smoke set exited %d", code)
	}
	// Under 5 s on the reference box; reported, not asserted, because the
	// race detector and loaded CI machines multiply it.
	t.Logf("smoke set took %v", wall.Now().Sub(start))
	rp, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	b := readBenchmarkJSON(t)

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench/e2e" {
		t.Errorf("paths = %v, want [bench/e2e]", b.Paths)
	}

	// Workloads: the same five, with the same reasons, both ways.
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, is %d", w.name, len(w.why))
		}
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q", w.name)
		}
		if i < len(b.Workloads) && (b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why) {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, b.Workloads[i].Name, w.name)
		}
	}

	// End-to-end definitions equal the program's table.
	if len(b.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(e2eMetrics))
	}
	sawSetup := false
	for i, d := range e2eMetrics {
		j := b.EndToEnd[i]
		better := "lower"
		if d.higherIsBetter {
			better = "higher"
		}
		if j.Name != d.name || j.Unit != d.unit || j.Better != better || j.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, j, d)
		}
		if j.Bound <= 0 || j.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", j.Name, j.Bound)
		}
		sawSetup = sawSetup || (j.Name == "setup_s" && j.Unit == "s" && j.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	// Every run reports exactly the declared metrics, with their units.
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, d := range b.EndToEnd {
		want[false][d.Name] = d.Unit
	}
	for _, d := range b.PerLayer {
		want[true][d.Name] = d.Unit
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	if len(rp.Runs) != 2*len(workloads) {
		t.Fatalf("%d runs, want %d", len(rp.Runs), 2*len(workloads))
	}
	for _, r := range rp.Runs {
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", r.Workload, r.Traced, r.Correct, r.Attempted, r.Failed)
		}
		for name, m := range r.Metrics {
			if !nameRE.MatchString(name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: metric %q unit %q outside the contract's alphabet", r.Workload, name, m.Unit)
			}
			if u, ok := want[r.Traced][name]; !ok {
				t.Errorf("%s traced=%v: reports %s, which BENCHMARK.json does not name", r.Workload, r.Traced, name)
			} else if u != m.Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", r.Workload, name, m.Unit, u)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v", r.Workload, name, m.Value)
			}
		}
		for name := range want[r.Traced] {
			if _, ok := r.Metrics[name]; !ok {
				t.Errorf("%s traced=%v: BENCHMARK.json names %s, which the run does not report", r.Workload, r.Traced, name)
			}
		}
		if !r.Traced {
			for _, d := range e2eMetrics {
				if r.Metrics[d.name].Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must never be 0", r.Workload, d.name, r.Metrics[d.name].Value)
				}
			}
			continue
		}
		// The attribution rule: the three parts of a traced iteration
		// sum to its wall time.
		v := func(name string) float64 { return r.Metrics[name].Value }
		parts := v("engine.gradfn_s") + v("storage.covered_s") + v("engine.self_s")
		if iter := v("engine.iter_s"); iter <= 0 || math.Abs(parts-iter) > 0.03*iter {
			t.Errorf("%s: gradfn+covered+self = %v, traced iter_s = %v", r.Workload, parts, iter)
		}
		if _, err := os.Stat(filepath.Join(dir, "out", r.Workload+".trace.json")); err != nil {
			t.Errorf("%s: no trace file: %v", r.Workload, err)
		}
	}
	// Every tier directory is gone.
	if left, _ := os.ReadDir(filepath.Join(dir, "tiers")); len(left) != 0 {
		t.Errorf("tier directories left behind: %v", left)
	}
}

// trainRig sets a workload up with or without the span recorder and
// trains it for n more iterations, summing what the public API reports.
func trainRig(t *testing.T, name string, traced bool, n int) (*rig, *recorder, stepResult) {
	t.Helper()
	wl, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	var rec *recorder
	if traced {
		rec = newRecorder()
		rec.enable(true)
	}
	r, err := newRig(wl, smoke, newInputs(7), rec, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.close() })
	var total stepResult
	for i := 0; i < n; i++ {
		sr, err := r.step()
		if err != nil {
			t.Fatal(err)
		}
		total.it.Merge(sr.it)
	}
	return r, rec, total
}

// TestSpanTierIsBehaviourNeutral: wrapping the tiers changes nothing the
// engine does — same parameters, same cache behaviour, same operations —
// and every optional tier capability still reaches the wrapped tier.
func TestSpanTierIsBehaviourNeutral(t *testing.T) {
	const iters = 4
	for _, name := range []string{"baseline-iobound", "mlp-smallobj"} {
		plain, _, a := trainRig(t, name, false, iters)
		wrapped, rec, b := trainRig(t, name, true, iters)
		pa, err := plain.gather()
		if err != nil {
			t.Fatal(err)
		}
		pb, err := wrapped.gather()
		if err != nil {
			t.Fatal(err)
		}
		if fnvF32(pa) != fnvF32(pb) {
			t.Errorf("%s: parameters differ with the tiers wrapped", name)
		}
		if a.it.CacheHits != b.it.CacheHits || a.it.CacheMisses != b.it.CacheMisses {
			t.Errorf("%s: cache hits/misses %d/%d plain, %d/%d wrapped", name, a.it.CacheHits, a.it.CacheMisses, b.it.CacheHits, b.it.CacheMisses)
		}
		if name == "baseline-iobound" {
			// The baseline's reads are one op per object, whatever the
			// timing; promotion only moves them between fetch classes.
			reads := func(s stepResult) (state, grad int) {
				return s.it.ClassIO["demand-fetch"].Ops + s.it.ClassIO["prefetch"].Ops, s.it.ClassIO["grad-read"].Ops
			}
			sa, ga := reads(a)
			sb, gb := reads(b)
			if sa != sb || ga != gb || sa == 0 || ga == 0 {
				t.Errorf("%s: state/grad read ops %d/%d plain, %d/%d wrapped", name, sa, ga, sb, gb)
			}
		} else {
			vec := 0
			for _, s := range rec.snapshot() {
				if s.op == "ReadVec" {
					vec++
				}
			}
			if vec == 0 {
				t.Errorf("%s: fetch coalescing is on but no ReadVec reached the wrapped tier", name)
			}
		}
	}

	// Pre-staged checkpoint copies still hard-link through the wrapper.
	r, rec, _ := trainRig(t, "mlp-codec-ckpt", true, 2)
	if err := r.checkpointNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	linked := 0
	for _, e := range r.last.Entries {
		if !e.PreStaged {
			continue
		}
		live, err1 := os.Stat(filepath.Join(r.dir, e.Tier, subgroup.Key(0, e.SubgroupID)))
		snap, err2 := os.Stat(filepath.Join(r.dir, e.Tier, e.Key))
		if err1 != nil || err2 != nil {
			t.Fatalf("pre-staged subgroup %d: %v, %v", e.SubgroupID, err1, err2)
		}
		if !os.SameFile(live, snap) {
			t.Errorf("pre-staged subgroup %d was copied, not hard-linked", e.SubgroupID)
		}
		linked++
	}
	copies := 0
	for _, s := range rec.snapshot() {
		if s.op == "Copy" {
			copies++
		}
	}
	if linked == 0 || copies != linked {
		t.Errorf("%d pre-staged entries, %d Copy spans", linked, copies)
	}
}

// TestEngineErrorsBecomeFailedOperations: a tier that starts failing
// aborts the workload with failed operations in the result — no panic,
// no error from the harness, nothing left on disk.
func TestEngineErrorsBecomeFailedOperations(t *testing.T) {
	boom := errors.New("injected tier fault")
	wl, _ := workloadByName("mlp-iobound")
	var faults []*storage.FaultTier
	wrap := func(every int64) wrapTier {
		return func(inner storage.Tier) storage.Tier {
			f := &storage.FaultTier{Tier: inner, FailEvery: every, Err: boom, FailReads: true}
			faults = append(faults, f)
			return f
		}
	}

	// Failing from the start: set-up is the one operation, and it failed.
	dir := t.TempDir()
	res, err := runOne(runOpts{wl: wl, sc: smoke, seed: 1, iters: 6, dir: dir, wrap: wrap(3)})
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	if res.Correct || res.Attempted != 1 || res.Failed != 1 {
		t.Errorf("failed set-up: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("left behind: %v", left)
	}

	// Failing inside the timed window: the failed iteration and the rest
	// of the planned window count as failed.
	faults = nil
	r, err := newRig(wl, smoke, newInputs(1), nil, dir, wrap(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range faults {
		f.SetFailEvery(8)
	}
	var op ops
	w := measure(r, runOpts{wl: wl, sc: smoke, iters: 6}, &op)
	if op.attempted != 6 || op.failed < 4 || len(w.iters) != op.attempted-op.failed {
		t.Errorf("aborted window: attempted=%d failed=%d completed=%d", op.attempted, op.failed, len(w.iters))
	}
	if !errors.Is(errors.Join(op.errs...), boom) {
		t.Errorf("the injected fault is not among the recorded errors: %v", op.errs)
	}
	if err := r.close(); err != nil {
		t.Error(err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("left behind: %v", left)
	}
}

func TestFlagsAndSeeds(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-scale", "smoke", "-dir", dir, "-out", filepath.Join(dir, "run.json")}
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-list"}, 0},
		{[]string{"-workload", "no-such"}, 2},
		{[]string{"-scale", "huge"}, 2},
		{[]string{"-compare", "only-one.json"}, 2},
		// Another seed, some workloads, in another order: the output
		// check passes on inputs it has not seen.
		{append([]string{"-seed", "2", "-workload", "mlp-2rank-shared,baseline-iobound"}, base...), 0},
		{append([]string{"-seed", "3", "-workload", "mlp-codec-ckpt", "-trace", "0"}, base...), 0},
	} {
		if got := run(tc.args, inProcess); got != tc.want {
			t.Errorf("run(%v) = %d, want %d", tc.args, got, tc.want)
		}
	}
	rp, err := readReport(filepath.Join(dir, "run.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rp.Workloads, ","); got != "mlp-2rank-shared,baseline-iobound" {
		t.Errorf("report ran %s", got)
	}
}

func TestDifferentSeedsGiveDifferentInputs(t *testing.T) {
	a := newInputs(1).referenceSums(1, 1000, 2)
	b := newInputs(1).referenceSums(1, 1000, 2)
	c := newInputs(2).referenceSums(1, 1000, 2)
	if foldSums(a) != foldSums(b) {
		t.Error("the same seed gave different inputs")
	}
	if foldSums(a) == foldSums(c) {
		t.Error("different seeds gave the same inputs")
	}
}

func TestStatMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := statOf([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, "s")
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("got %+v", s)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if s := statOf([]float64{1, 2}, "s"); s.Q1 != 0.75 || s.Median != 1.5 || s.Q3 != 2.25 {
		t.Errorf("got %+v", s)
	}
}

func TestUnionLen(t *testing.T) {
	got := unionLen([]interval{{5, 7}, {0, 2}, {1, 3}, {6, 6}, {10, 11}})
	if got != 6 {
		t.Errorf("unionLen = %d, want 6", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(iter []float64, failed int) *report {
		rp := &report{Workloads: []string{"w"}}
		for i, v := range iter {
			rp.Runs = append(rp.Runs, runRecord{Workload: "w", Set: i, result: result{
				Correct: failed == 0, Attempted: 10, Failed: failed,
				Metrics: map[string]metric{
					"iter_s": {v, "s"}, "update_mparams_per_s": {100, "Mparam/s"},
					"peak_rss_mib": {50, "MiB"}, "setup_s": {1, "s"},
				},
			}})
		}
		rp.summarise()
		return rp
	}
	steady := mk([]float64{1.00, 1.01, 0.99, 1.00, 1.00}, 0)
	for _, tc := range []struct {
		name      string
		next      *report
		regressed bool
		want      string
	}{
		{"same", mk([]float64{1.01, 1.00, 1.00, 0.99, 1.02}, 0), false, "ok"},
		{"slower", mk([]float64{1.20, 1.21, 1.19, 1.20, 1.20}, 0), true, "regressed"},
		{"noisy", mk([]float64{0.8, 1.3, 1.0, 0.7, 1.4}, 0), false, "unresolved"},
		{"failing", mk([]float64{1.00, 1.01, 0.99, 1.00, 1.00}, 1), true, "regressed"},
	} {
		var out bytes.Buffer
		if got := compare(&out, steady, tc.next); got != tc.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", tc.name, got, tc.regressed, out.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: no %q row\n%s", tc.name, tc.want, out.String())
		}
	}
}
