package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/datastates/mlpoffload/internal/simrun"
)

// TestEmitJSONRoundTrip: the -json output must be a JSON array of cell
// reports that parses back to the same benchmark names — the contract
// CI's cell count and anyone reading simmatrix.json rely on.
func TestEmitJSONRoundTrip(t *testing.T) {
	reps, err := simrun.RunMatrix([]string{"coalesce-microfetch"},
		simrun.MatrixOptions{Iterations: 2, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := emit(&buf, reps, true); err != nil {
		t.Fatal(err)
	}
	var back []simrun.CellReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("emit produced unparseable JSON: %v", err)
	}
	if len(back) != len(reps) {
		t.Fatalf("round trip lost reports: %d -> %d", len(reps), len(back))
	}
	for i := range back {
		if back[i].Benchmark != reps[i].Benchmark {
			t.Errorf("report %d: benchmark %q != %q", i, back[i].Benchmark, reps[i].Benchmark)
		}
		if !strings.HasPrefix(back[i].Benchmark, "simmatrix-") {
			t.Errorf("report %d: name %q lacks simmatrix- prefix", i, back[i].Benchmark)
		}
	}
}

// TestEmitText: the human-readable mode must name every variant and the
// speedup metric.
func TestEmitText(t *testing.T) {
	reps, err := simrun.RunMatrix([]string{"coalesce-microfetch"},
		simrun.MatrixOptions{Iterations: 2, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := emit(&buf, reps, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"simmatrix-coalesce-microfetch", "batch-1", "batch-8", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}
