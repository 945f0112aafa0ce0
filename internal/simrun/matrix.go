// The scenario matrix: named simulation cells sweeping regimes the paper
// never measured — bursty tier bandwidth, codec on/off at 40B and 280B,
// checkpoint storms from hundreds of co-tenant jobs, and vectored-fetch
// economics in a small-object regime. Each cell emits one report under a distinct
// "simmatrix-<scenario>" benchmark name.
package simrun

import (
	"fmt"

	"github.com/datastates/mlpoffload/internal/cluster"
	"github.com/datastates/mlpoffload/internal/model"
)

// MatrixOptions sizes a matrix run. Zero values keep each scenario's
// paper-scale defaults; CI passes smaller numbers.
type MatrixOptions struct {
	Iterations     int // per-cell iterations (0 = scenario default)
	Warmup         int // warmup iterations dropped from means
	CheckpointJobs int // storm size override (0 = scenario default)
	// Calibration substitutes machine-measured overhead and codec
	// quantities, which Table 1 does not provide, wherever the scenario
	// needs them.
	Calibration cluster.Calibration
}

// CellConfig identifies one scenario cell in its report.
type CellConfig struct {
	Scenario       string `json:"scenario"`
	Model          string `json:"model"`
	Testbed        string `json:"testbed"`
	Nodes          int    `json:"nodes"`
	Iterations     int    `json:"iterations"`
	Warmup         int    `json:"warmup"`
	SubgroupParams int64  `json:"subgroup_params"`
	Calibrated     bool   `json:"calibrated"`
}

// CellResult is one variant's measurements within a cell (stable flat
// keys, so two simmatrix.json files diff field by field).
type CellResult struct {
	Variant          string  `json:"variant"`
	IterSec          float64 `json:"iter_sec"`
	ForwardSec       float64 `json:"forward_sec"`
	BackwardSec      float64 `json:"backward_sec"`
	UpdateSec        float64 `json:"update_sec"`
	UpdateMParams    float64 `json:"update_mparams_per_sec"`
	ReadGB           float64 `json:"read_gb"`
	WriteGB          float64 `json:"write_gb"`
	WireReadGB       float64 `json:"wire_read_gb"`
	WireWriteGB      float64 `json:"wire_write_gb"`
	CompressionRatio float64 `json:"compression_ratio"`
	CacheHitRate     float64 `json:"cache_hit_rate"`
	FetchP50MS       float64 `json:"fetch_p50_ms"`
	FetchP95MS       float64 `json:"fetch_p95_ms"`
	MisplacedEnd     int     `json:"misplaced_end"`
	CheckpointOps    int64   `json:"checkpoint_ops"`
	CheckpointP95S   float64 `json:"checkpoint_p95_sec"`
	PlanRatio        string  `json:"plan_ratio"`
}

// CellReport is one scenario cell's report.
type CellReport struct {
	Benchmark     string       `json:"benchmark"`
	Config        CellConfig   `json:"config"`
	Results       []CellResult `json:"results"`
	Speedup       float64      `json:"speedup"`
	SpeedupMetric string       `json:"speedup_metric"`
}

// Scenario is one named cell of the matrix.
type Scenario struct {
	Name  string // report name is "simmatrix-"+Name
	Title string
	run   func(MatrixOptions) (*CellReport, error)
}

// Run executes the scenario.
func (s Scenario) Run(opts MatrixOptions) (*CellReport, error) {
	rep, err := s.run(opts)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	rep.Benchmark = "simmatrix-" + s.Name
	rep.Config.Scenario = s.Name
	return rep, nil
}

// cellResult flattens a simulation result into report keys.
func cellResult(variant string, res *Result) CellResult {
	m := res.Mean
	cr := CellResult{
		Variant:        variant,
		IterSec:        m.Phases.Total(),
		ForwardSec:     m.Phases.Forward,
		BackwardSec:    m.Phases.Backward,
		UpdateSec:      m.Phases.Update,
		ReadGB:         m.BytesRead / 1e9,
		WriteGB:        m.BytesWritten / 1e9,
		WireReadGB:     m.WireBytesRead / 1e9,
		WireWriteGB:    m.WireBytesWritten / 1e9,
		FetchP50MS:     res.FetchP50 * 1e3,
		FetchP95MS:     res.FetchP95 * 1e3,
		MisplacedEnd:   res.MisplacedEnd,
		CheckpointOps:  res.CheckpointOps,
		CheckpointP95S: res.CheckpointP95,
		PlanRatio:      res.PlanRatio,
	}
	if m.Phases.Update > 0 {
		cr.UpdateMParams = float64(m.ParamsUpdated) / m.Phases.Update / 1e6
	}
	if wire := m.WireBytesRead + m.WireBytesWritten; wire > 0 {
		cr.CompressionRatio = (m.BytesRead + m.BytesWritten) / wire
	}
	if tot := m.CacheHits + m.CacheMisses; tot > 0 {
		cr.CacheHitRate = float64(m.CacheHits) / float64(tot)
	}
	return cr
}

// sized applies the option overrides to a cell's default iteration count.
func sized(opts MatrixOptions, defIters, defWarmup int) (iters, warmup int) {
	iters, warmup = defIters, defWarmup
	if opts.Iterations > 0 {
		iters = opts.Iterations
		warmup = min(defWarmup, iters-1)
	}
	if opts.Warmup > 0 && opts.Warmup < iters {
		warmup = opts.Warmup
	}
	return iters, warmup
}

// codecApproach applies the calibrated codec (or a representative bulk
// codec when no measurement is available) to an approach.
func codecApproach(ap Approach, cal cluster.Calibration) Approach {
	if cal.CodecRatio > 1 {
		ap.CodecRatio = cal.CodecRatio
		ap.CodecEncBW = cal.CodecEncBW
		ap.CodecDecBW = cal.CodecDecBW
	} else {
		// UNMEASURED placeholders (a ~1.5x ratio at bulk multi-core
		// transform rates), kept because the uncalibrated matrix cells
		// and their tests are pinned to them. What bench/e2e measures on
		// the 2-vCPU reference box, one core, 8 MB FP32 state objects:
		// ratio 1.22, encode 0.8e9 B/s, decode 1.0e9 B/s (the DEFLATE
		// writer this replaced: 1.21, 0.17e9, 0.32e9). Calibrate from a
		// bench/e2e report (CalibrationFromBench) for real numbers.
		ap.CodecRatio = 1.5
		ap.CodecEncBW = 2e9
		ap.CodecDecBW = 3e9
	}
	return ap
}

// Scenarios returns the matrix. Every cell is deterministic: the same
// options produce bit-identical reports.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:  "baseline-40b",
			Title: "40B on Testbed-1: DeepSpeed baseline vs MLP-Offload vs the engine's I/O workers, priority and coalescing",
			run: func(opts MatrixOptions) (*CellReport, error) {
				iters, warm := sized(opts, 6, 1)
				m, err := model.ByName("40B")
				if err != nil {
					return nil, err
				}
				rep := &CellReport{
					Config:        CellConfig{Model: "40B", Testbed: "Testbed-1", Nodes: 1, Iterations: iters, Warmup: warm, SubgroupParams: 100e6, Calibrated: !opts.Calibration.IsZero()},
					SpeedupMetric: "iter_sec(DeepSpeed ZeRO-3 / engine)",
				}
				var first, last float64
				for _, ap := range []Approach{DeepSpeedZeRO3(), MLPOffload(), EngineTrue()} {
					res, err := Run(Config{Testbed: cluster.Testbed1(), Model: m, Approach: ap, Iterations: iters, Warmup: warm})
					if err != nil {
						return nil, err
					}
					cr := cellResult(ap.Name, res)
					rep.Results = append(rep.Results, cr)
					if first == 0 {
						first = cr.IterSec
					}
					last = cr.IterSec
				}
				rep.Speedup = first / last
				return rep, nil
			},
		},
		{
			Name:  "bursty-pfs-40b",
			Title: "PFS bandwidth drops to 30% mid-run: static plan vs adaptive replanning",
			run: func(opts MatrixOptions) (*CellReport, error) {
				iters, warm := sized(opts, 8, 1)
				m, err := model.ByName("40B")
				if err != nil {
					return nil, err
				}
				static := EngineTrue()
				static.Name = "static-plan"
				static.AdaptivePlacement = false
				adaptive := EngineTrue()
				adaptive.Name = "adaptive-plan"
				rep := &CellReport{
					Config:        CellConfig{Model: "40B", Testbed: "Testbed-1", Nodes: 1, Iterations: iters, Warmup: warm, SubgroupParams: 100e6, Calibrated: !opts.Calibration.IsZero()},
					SpeedupMetric: "iter_sec(static-plan / adaptive-plan)",
				}
				for _, ap := range []Approach{static, adaptive} {
					res, err := Run(Config{
						Testbed: cluster.Testbed1(), Model: m, Approach: ap,
						Iterations: iters, Warmup: warm,
						SlowdownFactor: 0.3, SlowdownTier: 1, SlowdownAt: min(2, iters-1),
					})
					if err != nil {
						return nil, err
					}
					rep.Results = append(rep.Results, cellResult(ap.Name, res))
				}
				rep.Speedup = rep.Results[0].IterSec / rep.Results[1].IterSec
				return rep, nil
			},
		},
		{
			Name:  "codec-40b",
			Title: "40B under congested PFS (25%): tier codec off vs on",
			run:   codecCell("40B", cluster.Testbed1, "Testbed-1", 1, 6),
		},
		{
			Name:  "codec-280b",
			Title: "280B on 8 Testbed-2 nodes under congested PFS (25%): tier codec off vs on",
			run:   codecCell("280B", cluster.Testbed2, "Testbed-2", 8, 4),
		},
		{
			Name:  "ckpt-storm-pfs",
			Title: "Co-tenant checkpoint storm against the shared PFS: FIFO engine vs classed priority",
			run: func(opts MatrixOptions) (*CellReport, error) {
				iters, warm := sized(opts, 6, 1)
				jobs := opts.CheckpointJobs
				if jobs <= 0 {
					jobs = 32
				}
				// Class priority matters exactly when queue waits stay under
				// the 50ms aging bound — beyond it, aged-oldest-first (in
				// the real engine and here) converges to FIFO by design, so
				// a closed-loop saturating storm shows nothing. This cell is
				// the regime classing exists for: small training state
				// objects (12MB) and an open-loop storm of 1MiB co-tenant
				// checkpoint writes at ~1/3 of PFS bandwidth, shallow enough
				// queues that nothing ages. The protected quantity is the
				// fetch tail, not throughput. The host cache is constrained
				// below the working set so every iteration keeps a live
				// fetch + flush stream contending with the storm.
				mdl := model.Config{Name: "1.3B", NominalParams: 13e8}
				fifo := EngineTrue()
				fifo.Name = "fifo"
				fifo.PriorityIO = false
				classed := EngineTrue()
				classed.Name = "classed-priority"
				rep := &CellReport{
					Config:        CellConfig{Model: "1.3B", Testbed: "Testbed-1", Nodes: 1, Iterations: iters, Warmup: warm, SubgroupParams: 1e6, Calibrated: !opts.Calibration.IsZero()},
					SpeedupMetric: "fetch_p95_ms(fifo / classed-priority)",
				}
				for _, ap := range []Approach{fifo, classed} {
					res, err := Run(Config{
						Testbed: cluster.Testbed1(), Model: mdl, Approach: ap,
						SubgroupParams: 1e6, Iterations: iters, Warmup: warm,
						CacheSlots: 96, PrefetchDepth: 2,
						CheckpointJobs: jobs, CheckpointBytes: 1 << 20,
						CheckpointInterval: 0.025,
					})
					if err != nil {
						return nil, err
					}
					rep.Results = append(rep.Results, cellResult(ap.Name, res))
				}
				if rep.Results[1].FetchP95MS > 0 {
					rep.Speedup = rep.Results[0].FetchP95MS / rep.Results[1].FetchP95MS
				}
				return rep, nil
			},
		},
		{
			Name:  "coalesce-microfetch",
			Title: "Cold working-set refill at iobench object scale: per-object fetches vs vectored batch=8",
			run: func(opts MatrixOptions) (*CellReport, error) {
				overhead := opts.Calibration.OpOverheadSec
				if overhead <= 0 {
					// A per-object read (open + submit per object) of a
					// 16KB file measured ~8.3us/op; the pooled vectored
					// path pays it once per batch.
					overhead = 8.3e-6
				}
				// 1365-param subgroups (~16KB of state): per-op cost rivals
				// the transfer, the regime coalescing exists for. One cold
				// iteration on a single GPU worker (one submitter, queue
				// depth bounded), so per-op cost serializes instead of
				// hiding in device sharing, with the cache sized to the
				// working set: the measurement is the refill itself (restart /
				// post-replan repopulation), before the steady-state
				// flush stream takes over the critical path.
				mdl := model.Config{Name: "micro-1M", NominalParams: 1 << 20}
				tb := cluster.Testbed1()
				tb.GPUsPerNode = 1
				single := EngineTrue()
				single.IOWorkers = 1
				batched := single
				single.Name = "batch-1"
				single.CoalesceFetches = 1
				batched.Name = "batch-8"
				batched.CoalesceFetches = 8
				rep := &CellReport{
					Config:        CellConfig{Model: "micro-1M", Testbed: "Testbed-1", Nodes: 1, Iterations: 1, Warmup: 0, SubgroupParams: 1365, Calibrated: !opts.Calibration.IsZero()},
					SpeedupMetric: "update_sec(batch-1 / batch-8)",
				}
				for _, ap := range []Approach{single, batched} {
					res, err := Run(Config{
						Testbed: tb, Model: mdl, Approach: ap,
						SubgroupParams: 1365, Iterations: 1, Warmup: 0,
						OpOverhead: overhead,
						CacheSlots: 1 << 10, PrefetchDepth: 32,
					})
					if err != nil {
						return nil, err
					}
					rep.Results = append(rep.Results, cellResult(ap.Name, res))
				}
				rep.Speedup = rep.Results[0].UpdateSec / rep.Results[1].UpdateSec
				return rep, nil
			},
		},
	}
}

// codecCell builds the codec on/off comparison for one model/testbed.
func codecCell(modelName string, tb func() cluster.Testbed, tbName string, nodes, defIters int) func(MatrixOptions) (*CellReport, error) {
	return func(opts MatrixOptions) (*CellReport, error) {
		iters, warm := sized(opts, defIters, 1)
		m, err := model.ByName(modelName)
		if err != nil {
			return nil, err
		}
		off := EngineTrue()
		off.Name = "codec-off"
		on := codecApproach(EngineTrue(), opts.Calibration)
		on.Name = "codec-on"
		rep := &CellReport{
			Config:        CellConfig{Model: modelName, Testbed: tbName, Nodes: nodes, Iterations: iters, Warmup: warm, SubgroupParams: 100e6, Calibrated: !opts.Calibration.IsZero()},
			SpeedupMetric: "iter_sec(codec-off / codec-on)",
		}
		for _, ap := range []Approach{off, on} {
			res, err := Run(Config{
				Testbed: tb(), Model: m, Approach: ap, Nodes: nodes,
				Iterations: iters, Warmup: warm,
				SlowdownFactor: 0.25, SlowdownTier: 1, SlowdownAt: 0,
			})
			if err != nil {
				return nil, err
			}
			rep.Results = append(rep.Results, cellResult(ap.Name, res))
		}
		rep.Speedup = rep.Results[0].IterSec / rep.Results[1].IterSec
		return rep, nil
	}
}

// ScenarioByName finds one cell.
func ScenarioByName(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("simrun: unknown scenario %q", name)
}

// RunMatrix executes the named cells (nil/empty = all) and returns their
// reports in matrix order.
func RunMatrix(names []string, opts MatrixOptions) ([]*CellReport, error) {
	cells, err := selectScenarios(names)
	if err != nil {
		return nil, err
	}
	out := make([]*CellReport, 0, len(cells))
	for _, s := range cells {
		rep, err := s.Run(opts)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// selectScenarios returns the named cells (nil/empty = all) in matrix
// order, or an error naming the first unknown cell.
func selectScenarios(names []string) ([]Scenario, error) {
	all := Scenarios()
	if len(names) == 0 {
		return all, nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		if _, err := ScenarioByName(n); err != nil {
			return nil, err
		}
		want[n] = true
	}
	var out []Scenario
	for _, s := range all {
		if want[s.Name] {
			out = append(out, s)
		}
	}
	return out, nil
}
