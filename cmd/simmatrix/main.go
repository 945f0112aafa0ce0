// Command simmatrix runs the scenario matrix: named simulation cells
// sweeping regimes the paper never measured (bursty PFS bandwidth, codec
// on/off at 40B and 280B, checkpoint storms, vectored-fetch economics).
// Each cell produces one report under a distinct "simmatrix-<scenario>"
// benchmark name.
//
// Usage:
//
//	simmatrix -list                      # scenario names and titles
//	simmatrix                            # full matrix, text tables
//	simmatrix -cells codec-40b -iters 4  # one CI-sized cell
//	simmatrix -json -out matrix.json     # JSON array of cell reports
//	simmatrix -calibrate e2e.json        # rates from a bench/e2e report
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/datastates/mlpoffload/internal/metrics"
	"github.com/datastates/mlpoffload/internal/simrun"
)

func main() {
	var (
		cells     = flag.String("cells", "", "comma-separated scenario names (empty = all)")
		iters     = flag.Int("iters", 0, "iterations per cell (0 = scenario default)")
		warmup    = flag.Int("warmup", 0, "warmup iterations dropped from means (0 = scenario default)")
		ckptJobs  = flag.Int("ckpt-jobs", 0, "checkpoint-storm stream count (0 = scenario default)")
		calibrate = flag.String("calibrate", "", "bench/e2e report (-out file) to derive calibrated rates from")
		jsonOut   = flag.Bool("json", false, "emit a JSON array of cell reports")
		out       = flag.String("out", "", "output file (empty = stdout)")
		list      = flag.Bool("list", false, "list scenario names and exit")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "simmatrix: %v\n", err)
		os.Exit(1)
	}

	if *list {
		for _, s := range simrun.Scenarios() {
			fmt.Printf("%-22s %s\n", s.Name, s.Title)
		}
		return
	}

	opts := simrun.MatrixOptions{
		Iterations:     *iters,
		Warmup:         *warmup,
		CheckpointJobs: *ckptJobs,
	}
	if *calibrate != "" {
		cal, err := simrun.LoadCalibration(*calibrate)
		if err != nil {
			fail(err)
		}
		opts.Calibration = cal
	}

	var names []string
	if *cells != "" {
		for _, n := range strings.Split(*cells, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}

	reps, err := simrun.RunMatrix(names, opts)
	if err != nil {
		fail(err)
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	if err := emit(w, reps, *jsonOut); err != nil {
		fail(err)
	}
}

// emit renders the reports as a JSON array or as human-readable tables.
func emit(w io.Writer, reps []*simrun.CellReport, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(reps)
	}
	for _, rep := range reps {
		t := metrics.NewTable(
			fmt.Sprintf("%s: %s/%s, %d node(s), %d iters (%d warmup)",
				rep.Benchmark, rep.Config.Model, rep.Config.Testbed,
				rep.Config.Nodes, rep.Config.Iterations, rep.Config.Warmup),
			"variant", "iter (s)", "update (s)", "Mparam/s", "read GB", "wire GB",
			"hit rate", "fetch p95 (ms)", "ckpt ops")
		for _, r := range rep.Results {
			t.AddRow(r.Variant,
				fmt.Sprintf("%.3f", r.IterSec),
				fmt.Sprintf("%.3f", r.UpdateSec),
				fmt.Sprintf("%.0f", r.UpdateMParams),
				fmt.Sprintf("%.2f", r.ReadGB),
				fmt.Sprintf("%.2f", r.WireReadGB),
				fmt.Sprintf("%.2f", r.CacheHitRate),
				fmt.Sprintf("%.3f", r.FetchP95MS),
				fmt.Sprintf("%d", r.CheckpointOps))
		}
		t.AddNote("speedup %.2fx (%s)", rep.Speedup, rep.SpeedupMetric)
		if _, err := fmt.Fprintln(w, t.Render()); err != nil {
			return err
		}
	}
	return nil
}
