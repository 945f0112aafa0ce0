package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"tab1", "tab2", "fig1", "fig3", "fig4", "fig5",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"ext-adaptive", "ext-subgroup", "ext-matrix"}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(ids), len(want))
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("ids[%d] = %q, want %q", i, ids[i], id)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig7")
	if err != nil || e.ID != "fig7" {
		t.Fatalf("ByID(fig7) = %v, %v", e, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current outputs")

// TestAllExperimentsRun executes every experiment in quick mode and
// requires each table to match its committed golden byte for byte. This is
// the end-to-end regression for the whole reproduction pipeline: any
// simulator change that moves a figure shows up here. After an intended
// change, regenerate with `go test ./internal/experiments -run
// TestAllExperimentsRun -update` and review the diff.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(Quick())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			golden := filepath.Join("testdata", e.ID+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Errorf("%s output differs from %s:\n--- got\n%s--- want\n%s", e.ID, golden, out, want)
			}
		})
	}
}

func TestFig7SpeedupColumn(t *testing.T) {
	out, err := Fig7(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Every MLP-Offload row must show a >1x speedup.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "MLP-Offload") {
			if strings.Contains(line, "0.") && strings.HasSuffix(strings.TrimSpace(line), "x") {
				fields := strings.Fields(line)
				sp := fields[len(fields)-1]
				if strings.HasPrefix(sp, "0.") {
					t.Errorf("MLP-Offload slower than baseline: %s", line)
				}
			}
		}
	}
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.normalize()
	if o.Iterations != 10 || o.Warmup != 0 {
		t.Errorf("defaults = %+v", o)
	}
	if d := DefaultOptions(); d.Iterations != 10 || d.Warmup != 2 {
		t.Errorf("DefaultOptions = %+v", d)
	}
	o = Options{Iterations: 3, Warmup: 7}.normalize()
	if o.Warmup >= o.Iterations {
		t.Errorf("warmup not clamped: %+v", o)
	}
}

func TestSortedTierNames(t *testing.T) {
	got := sortedTierNames(map[string]float64{"pfs": 1, "host": 2, "nvme": 3, "zzz": 4})
	want := []string{"host", "nvme", "pfs", "zzz"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
}
