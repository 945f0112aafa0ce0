package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"

	"github.com/datastates/mlpoffload/internal/metrics"
)

// e2eMetric defines one end-to-end metric: what a user of the system
// sees. bound is the share of the baseline's median by which it may get
// worse before -compare (and the driver) call it a regression.
// BENCHMARK.json carries the same four; the package test holds them equal.
type e2eMetric struct {
	name, unit     string
	higherIsBetter bool
	bound          float64
}

var e2eMetrics = []e2eMetric{
	{name: "iter_s", unit: "s", bound: 0.10},
	{name: "update_mparams_per_s", unit: "Mparam/s", higherIsBetter: true, bound: 0.10},
	{name: "peak_rss_mib", unit: "MiB", bound: 0.10},
	{name: "setup_s", unit: "s", bound: 0.25},
}

// machine is the shape of the box a report was measured on. Numbers from
// a 1-2 CPU container are labelled as such by carrying this.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Filesystem string `json:"filesystem"` // of -dir, where the tiers live
}

func thisMachine(dir string) machine {
	return machine{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), Kernel: kernelRelease(), GoVersion: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, Filesystem: filesystemOf(dir),
	}
}

// runRecord is one run of one workload within a set.
type runRecord struct {
	Workload string `json:"workload"`
	Set      int    `json:"set"`
	Traced   bool   `json:"traced"`
	Seed     int64  `json:"seed"`
	result
}

// stat summarises one metric of one workload over the sets of a report.
// Quartiles follow Python's statistics.quantiles(values, n=4), which is
// what the driver computes.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// spread is the interquartile distance as a share of the median.
func (s stat) spread() float64 { return ratio(s.Q3-s.Q1, math.Abs(s.Median)) }

type workloadSummary struct {
	EndToEnd  map[string]stat `json:"end_to_end"`
	PerLayer  map[string]stat `json:"per_layer"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
}

// report is what a set of runs writes to -out.
type report struct {
	Machine   machine                    `json:"machine"`
	Scale     string                     `json:"scale"`
	Seed      int64                      `json:"seed"`
	Sets      int                        `json:"sets"`
	Workloads []string                   `json:"workloads"` // in the order run
	Runs      []runRecord                `json:"runs"`
	Summary   map[string]workloadSummary `json:"summary"`
}

func statOf(values []float64, unit string) stat {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	st := stat{N: n, Unit: unit}
	if n == 0 {
		return st
	}
	// statistics.quantiles' default "exclusive" method.
	q := func(i int) float64 {
		if n == 1 {
			return s[0]
		}
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	st.Q1, st.Median, st.Q3 = q(1), q(2), q(3)
	return st
}

// summarise folds the runs of a report into per-workload statistics.
func (rp *report) summarise() {
	type key struct {
		wl, name string
		traced   bool
	}
	values := map[key][]float64{}
	units := map[string]string{}
	rp.Summary = map[string]workloadSummary{}
	for _, r := range rp.Runs {
		ws := rp.Summary[r.Workload]
		ws.Attempted += r.Attempted
		ws.Failed += r.Failed
		rp.Summary[r.Workload] = ws
		for name, m := range r.Metrics {
			k := key{r.Workload, name, r.Traced}
			values[k] = append(values[k], m.Value)
			units[name] = m.Unit
		}
	}
	for k, v := range values {
		ws := rp.Summary[k.wl]
		dst := &ws.EndToEnd
		if k.traced {
			dst = &ws.PerLayer
		}
		if *dst == nil {
			*dst = map[string]stat{}
		}
		(*dst)[k.name] = statOf(v, units[k.name])
		rp.Summary[k.wl] = ws
	}
}

// print writes every metric of every workload by name, with its unit.
func (rp *report) print(w io.Writer) {
	mc := rp.Machine
	fmt.Fprintf(w, "machine: nproc=%d GOMAXPROCS=%d cpu=%q kernel=%s %s %s fs=%s\n",
		mc.NumCPU, mc.GOMAXPROCS, mc.CPUModel, mc.Kernel, mc.GoVersion, mc.OSArch, mc.Filesystem)
	fmt.Fprintf(w, "scale=%s seed=%d sets=%d\n", rp.Scale, rp.Seed, rp.Sets)
	for _, wl := range rp.Workloads {
		ws := rp.Summary[wl]
		fmt.Fprintf(w, "\n== %s: %d operations attempted, %d failed\n", wl, ws.Attempted, ws.Failed)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		for _, group := range []map[string]stat{ws.EndToEnd, ws.PerLayer} {
			for _, n := range metrics.SortedKeys(group) {
				s := group[n]
				if s.N > 1 {
					fmt.Fprintf(tw, "%s\t%.6g\t%s\t[q1 %.6g, q3 %.6g, n=%d]\n", n, s.Median, s.Unit, s.Q1, s.Q3, s.N)
				} else {
					fmt.Fprintf(tw, "%s\t%.6g\t%s\t\n", n, s.Median, s.Unit)
				}
			}
		}
		tw.Flush()
	}
}

func (rp *report) write(path string) error {
	data, err := json.MarshalIndent(rp, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rp report
	if err := json.Unmarshal(data, &rp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rp, nil
}

// compare prints one row per (workload, end-to-end metric) of base and
// next and reports whether any regressed. A metric whose run-to-run
// spread on either side is wider than its bound is unresolved: the two
// reports cannot tell a change of that size from noise.
func compare(w io.Writer, base, next *report) (regressed bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnext\tunit\tchange\tbound\tverdict")
	for _, wl := range base.Workloads {
		b, n := base.Summary[wl], next.Summary[wl]
		for _, d := range e2eMetrics {
			sb, ok1 := b.EndToEnd[d.name]
			sn, ok2 := n.EndToEnd[d.name]
			if !ok1 || !ok2 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\tmissing\n", wl, d.name)
				regressed = true
				continue
			}
			worse := ratio(sn.Median-sb.Median, sb.Median)
			if d.higherIsBetter {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case sb.spread() > d.bound || sn.spread() > d.bound:
				verdict = "unresolved"
			case worse > d.bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.1f%% worse\t%.0f%%\t%s\n",
				wl, d.name, sb.Median, sn.Median, d.unit, 100*worse, 100*d.bound, verdict)
		}
		fb, fn := ratio(float64(b.Failed), float64(b.Attempted)), ratio(float64(n.Failed), float64(n.Attempted))
		verdict := "ok"
		if fn > fb {
			verdict = "regressed"
			regressed = true
		}
		fmt.Fprintf(tw, "%s\tfailed_share\t%.4g\t%.4g\tratio\t\t\t%s\n", wl, fb, fn, verdict)
	}
	tw.Flush()
	return regressed
}
