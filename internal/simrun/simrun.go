// Package simrun executes the offloading pipelines of both runtimes —
// DeepSpeed ZeRO-3 and MLP-Offload — on the discrete-event simulator at
// paper scale (40B-280B parameters, terabytes of optimizer state), using
// the same policy packages as the real engine: hostcache ordering/LRU,
// placement (Eq. 1), and per-tier exclusive concurrency control.
//
// There is one pipeline (engine_model.go). Every tier operation goes
// through a des.Sched per (tier, GPU worker), the analogue of the aio
// engine object; an Approach only chooses what that model switches on —
// the I/O-worker bound, class priority, live migration, the codec and
// fetch coalescing — so the paper's two runtimes, its ablation rungs and
// the post-paper engine are points of one model.
//
// The hardware model comes from cluster.Testbed (Table 1): per-direction
// NVMe and PFS links with contention-efficiency curves, a processor-sharing
// CPU update resource, per-GPU D2H bandwidth, and the two calibration
// anchors the paper quotes (GPU forward time, CPU update rate). Everything
// the experiments report — phase breakdowns, update throughput, effective
// I/O, tier distribution, cache hits — is measured from simulated
// transfers, not computed analytically.
package simrun

import (
	"fmt"
	"math"

	"github.com/datastates/mlpoffload/internal/cluster"
	"github.com/datastates/mlpoffload/internal/hostcache"
	"github.com/datastates/mlpoffload/internal/metrics"
	"github.com/datastates/mlpoffload/internal/model"
)

// Approach is a named bundle of the toggleable design principles.
type Approach struct {
	Name          string
	Order         hostcache.Order
	SkipGradFlush bool // delayed in-place FP16→FP32 conversion
	ExclusiveIO   bool // node-level per-tier exclusive access
	UsePFS        bool // multi-path virtual tier (NVMe + PFS)
	// AdaptivePlacement re-plans the subgroup→tier split at every
	// iteration boundary from EWMA-smoothed observed bandwidths (§3.3's
	// B_i adjustment); otherwise the microbenchmark split is kept.
	AdaptivePlacement bool

	// The fields below model the post-paper engine (PRs 3/4/8); the
	// paper's runtimes leave them zero.

	// IOWorkers bounds the service processes of each (tier, GPU worker)
	// scheduler, as the aio engine's worker pool does (its default is 2).
	// 0 gives every op the pipeline can have outstanding on a tier its
	// own slot, so nothing queues: the paper's runtimes issue each
	// transfer directly.
	IOWorkers int
	// PriorityIO routes every tier operation through a class-based
	// multi-level queue (DemandFetch > GradRead > Prefetch > Flush >
	// Checkpoint > Migration) with aging, mirroring internal/aio. When
	// false, ops run through a single-class FIFO — the contrast the
	// checkpoint-storm scenario measures.
	PriorityIO bool
	// LiveMigration moves misplaced offloaded subgroups toward the plan in
	// the background after each replan (PR 3), up to two concurrent copies
	// per worker as the engine does, instead of waiting for natural
	// eviction traffic to converge.
	LiveMigration bool
	// CoalesceFetches batches up to this many adjacent same-tier fetches
	// into one vectored scheduler op (PR 8), paying the per-op overhead
	// once. <2 disables.
	CoalesceFetches int
	// CodecRatio > 1 models a compression codec on every tier (PR 4):
	// devices move bytes/CodecRatio wire bytes while the CPU pays
	// raw/CodecEncBW (writes) and raw/CodecDecBW (reads) seconds.
	// CodecEncBW/CodecDecBW of 0 mean free transforms.
	CodecRatio float64
	CodecEncBW float64
	CodecDecBW float64
}

// EngineTrue returns the approach matching the engine as PRs 1-8 left it:
// all paper principles plus the aio worker pool, priority scheduling, live
// migration, and fetch coalescing.
func EngineTrue() Approach {
	a := MLPOffload()
	a.Name = "MLP-Offload (engine)"
	a.IOWorkers = 2
	a.PriorityIO = true
	a.LiveMigration = true
	a.CoalesceFetches = 4
	return a
}

// DeepSpeedZeRO3 is the baseline: sequential order, FP32 gradient flushes,
// shared uncoordinated NVMe access, no PFS.
func DeepSpeedZeRO3() Approach {
	return Approach{Name: "DeepSpeed ZeRO-3"}
}

// MLPOffload enables all design principles.
func MLPOffload() Approach {
	return Approach{
		Name:              "MLP-Offload",
		Order:             hostcache.Alternating,
		SkipGradFlush:     true,
		ExclusiveIO:       true,
		UsePFS:            true,
		AdaptivePlacement: true,
	}
}

// AblationLadderNVMe returns the Figure 14 ladder: optimizations enabled
// progressively, all NVMe-only.
func AblationLadderNVMe() []Approach {
	return []Approach{
		DeepSpeedZeRO3(),
		{Name: "Enable Caching", Order: hostcache.Alternating},
		{Name: "Skip Gradients", Order: hostcache.Alternating, SkipGradFlush: true},
		{Name: "Process Atomic R/W", Order: hostcache.Alternating, SkipGradFlush: true, ExclusiveIO: true},
	}
}

// AblationLadderMultiPath returns the Figure 15 ladder: NVMe+PFS with
// optimizations enabled progressively.
func AblationLadderMultiPath() []Approach {
	return []Approach{
		{Name: "Multi-Path (with caching)", Order: hostcache.Alternating, UsePFS: true},
		{Name: "MP Skip Grads", Order: hostcache.Alternating, SkipGradFlush: true, UsePFS: true},
		{Name: "Our Approach", Order: hostcache.Alternating, SkipGradFlush: true, ExclusiveIO: true, UsePFS: true},
	}
}

// Config describes one simulated run.
type Config struct {
	Testbed  cluster.Testbed
	Model    model.Config
	Nodes    int
	Approach Approach
	// SubgroupParams is the subgroup size (paper methodology: 100e6).
	SubgroupParams int64
	// MicroBatch is samples per GPU per forward/backward (paper default 1;
	// the gradient-accumulation study uses 8).
	MicroBatch int
	// GradAccumSteps is forward/backward passes per update phase.
	GradAccumSteps int
	// Iterations and Warmup control measurement (paper: 10 and 2).
	Iterations int
	Warmup     int
	// CPUOnly marks the 20B baseline whose optimizer state fits in host
	// memory: updates run from host with no third-level I/O.
	CPUOnly bool
	// TraceIteration, when >= 0, records per-subgroup I/O throughput for
	// worker 0 during that iteration (Figure 5).
	TraceIteration int
	// SlowdownFactor in (0,1) scales the delivered bandwidth of tier
	// SlowdownTier (0 = NVMe, 1 = PFS) to that fraction from the start of
	// iteration SlowdownAt on: external batch jobs pressuring the shared
	// PFS (the fluctuation scenario of §3.3 and the paper's future-work
	// discussion), or a device failing mid-run. With AdaptivePlacement +
	// LiveMigration the replan triggers a migration storm toward the
	// surviving paths.
	SlowdownFactor float64
	SlowdownTier   int
	SlowdownAt     int

	// CheckpointJobs spawns that many co-tenant checkpoint streams, each
	// keeping one Checkpoint-class write in flight to the persistent tier
	// for the whole run — the "checkpoint storm from hundreds of
	// concurrent jobs" scenario.
	CheckpointJobs int
	// CheckpointBytes is the storm object size (0 = one subgroup's state).
	CheckpointBytes float64
	// CheckpointInterval is each storm job's think time in seconds between
	// writes (staggered starts). 0 = closed-loop: resubmit immediately,
	// saturating the tier.
	CheckpointInterval float64
	// OpOverhead is a fixed per-scheduler-op setup cost in seconds
	// (calibrated from BENCH seq-fetch data); this is the cost coalescing
	// amortizes.
	OpOverhead float64
	// FullDuplex models each tier as independent read and write links at
	// their nominal bandwidths (the semantics of storage.Throttled's two
	// token buckets) instead of the paper's half-duplex shared device.
	// Used when cross-validating against the real engine.
	FullDuplex bool
	// CacheSlots / PrefetchDepth override the derived values when > 0.
	CacheSlots    int
	PrefetchDepth int
	// TraceEvents records a deterministic per-op completion trace into
	// Result.EventTrace.
	TraceEvents bool
}

// normalize fills defaults and validates.
func (c *Config) normalize() error {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.SubgroupParams <= 0 {
		c.SubgroupParams = 100e6
	}
	if c.MicroBatch <= 0 {
		c.MicroBatch = 1
	}
	if c.GradAccumSteps <= 0 {
		c.GradAccumSteps = 1
	}
	if c.Iterations <= 0 {
		c.Iterations = 10
	}
	if c.Warmup < 0 || c.Warmup >= c.Iterations {
		c.Warmup = min(2, c.Iterations-1)
	}
	if c.Testbed.GPUsPerNode <= 0 {
		return fmt.Errorf("simrun: testbed has no GPUs")
	}
	if c.Model.Params() <= 0 {
		return fmt.Errorf("simrun: model has no parameters")
	}
	return nil
}

// SubgroupIO is one Figure 5 trace point: the I/O throughput worker 0
// observed for one subgroup's fetch and flush.
type SubgroupIO struct {
	Pos     int     // position in the update order
	ReadBW  float64 // bytes/second (0 for cache hits)
	WriteBW float64 // bytes/second (0 when not flushed)
}

// ClassStat aggregates one priority class's traffic over the whole run.
type ClassStat struct {
	Ops        int64
	Bytes      float64
	WireBytes  float64
	QueueDelay float64 // total seconds queued before service
	Service    float64 // total seconds of service
	P50        float64 // completion-latency percentiles, seconds
	P95        float64
}

// Result is the outcome of a simulated run.
type Result struct {
	Config Config
	Series metrics.Series
	Mean   metrics.Iteration
	Trace  []SubgroupIO
	// PlanRatio describes the subgroup placement, e.g. "nvme:pfs = 67:33".
	PlanRatio string
	// CacheSlotsPerWorker is the host-cache capacity used.
	CacheSlotsPerWorker int

	// Classes is keyed by scheduler class: the aio class names with
	// PriorityIO, else the single "fifo".
	Classes       map[string]ClassStat
	Migrations    int64   // background copies completed
	MigratedBytes float64 //
	MisplacedEnd  int     // offloaded subgroups off-plan at end of run
	FetchP50      float64 // perceived update-fetch latency percentiles, s
	FetchP95      float64
	CheckpointOps int64   // storm writes completed
	CheckpointP95 float64 // storm write completion-latency p95, seconds
	EventTrace    []string
}

// IterTime returns the mean iteration duration in seconds.
func (r Result) IterTime() float64 { return r.Mean.Phases.Total() }

// DiskIOFraction estimates the fraction of the update phase spent waiting
// on storage I/O rather than compute: 1 - compute/(update wall time), per
// worker averaged — the Figure 3 metric.
func DiskIOFraction(m metrics.Iteration, workersPerNode int) float64 {
	if m.Phases.Update <= 0 {
		return 0
	}
	perWorkerCompute := m.UpdateComputeTime / float64(workersPerNode)
	f := 1 - perWorkerCompute/m.Phases.Update
	return math.Max(0, math.Min(1, f))
}
