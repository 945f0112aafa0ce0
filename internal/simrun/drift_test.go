package simrun

import (
	"math"
	"testing"

	"github.com/datastates/mlpoffload/internal/clock"
	"github.com/datastates/mlpoffload/internal/cluster"
	"github.com/datastates/mlpoffload/internal/engine"
	"github.com/datastates/mlpoffload/internal/hostcache"
	"github.com/datastates/mlpoffload/internal/metrics"
	"github.com/datastates/mlpoffload/internal/model"
	"github.com/datastates/mlpoffload/internal/optim"
	"github.com/datastates/mlpoffload/internal/storage"
)

// Sim-vs-real drift tolerances. The simulator and the engine share policy
// code (hostcache order and LRU, placement) but not mechanism: the sim
// models each tier as unit-capacity device links under processor sharing,
// while the engine moves real bytes through storage.Throttled token
// buckets with burst allowances, real goroutine scheduling, and per-object
// subgroup headers. Measured drift on the pinned rig below is ~0.1% on
// update-phase time and ~0.03% on raw bytes (the 16-byte header per
// 48 KiB object); the gates leave headroom over those observations
// without letting a mechanism-level regression (a mis-accounted link, a
// broken cache policy) slip through. Write bytes additionally get one
// flush quantum of slack — see the comment at the assertion.
const (
	driftTolTime  = 0.10  // relative, update phase and total iteration
	driftTolBytes = 0.005 // relative, raw bytes moved per iteration
)

func relDrift(sim, real float64) float64 {
	if real == 0 {
		return math.Abs(sim)
	}
	return math.Abs(sim-real) / real
}

// TestSimVsRealDrift cross-validates the scheduler-based simulator
// pipeline against the real engine running on a virtual clock. Both sides
// get the same rig: one full-duplex storage tier at asymmetric 4/3 MB/s,
// 8 subgroups of 4096 params, a 3-slot host cache, prefetch depth 3, two
// I/O workers, alternating order with skipped gradient flushes. Under the
// virtual clock the engine's CPU work takes zero simulated time, so the
// comparison isolates exactly what the simulator claims to model: tier
// I/O and cache behaviour. Drive advances the clock only once every
// engine goroutine is parked, so the real side is as deterministic as the
// simulated one, under -race too.
//
// The engine runs two update workers because its prefetch depth is
// derived, max(2, UpdateWorkers+tiers): two give the depth of 3 the sim
// is set to, and with free CPU work the worker count matters only through
// that depth. One worker gives depth 2, where the engine's free-running
// issuer keeps both I/O workers on prefetches, so the phase's flushes
// wait out the prefetch priority and land at the next phase's barrier,
// while the sim issues from its sequential consumer and interleaves them
// (update-phase drift 0.12 there, the real side the slower).
func TestSimVsRealDrift(t *testing.T) {
	const (
		params   = int64(32768)
		sgParams = int64(4096) // M = 8 subgroups
		readBW   = 4e6
		writeBW  = 3e6
		iters    = 6
		warmup   = 2
	)

	// --- Real engine on a driven virtual clock. ---
	v := clock.NewVirtual()
	stopDrive := make(chan struct{})
	go v.Drive(stopDrive)
	defer close(stopDrive)

	// Bursts well below the 48 KiB object size so observed bandwidth
	// tracks the configured rate (see storage.ThrottleConfig).
	tier := storage.NewThrottled(storage.NewMemTier("nvme"), storage.ThrottleConfig{
		ReadBW: readBW, WriteBW: writeBW,
		ReadBurst: 4 << 10, WriteBurst: 4 << 10,
		Clock: v,
	})
	eng, err := engine.New(engine.Config{
		Rank:            0,
		Params:          params,
		SubgroupParams:  sgParams,
		Tiers:           []engine.TierSpec{{Tier: tier, ReadBW: readBW, WriteBW: writeBW}},
		Order:           hostcache.Alternating,
		SkipGradFlush:   true,
		HostCacheSlots:  3,
		KernelWorkers:   1, // serial kernels: zero virtual time either way
		UpdateWorkers:   2, // derived prefetch depth 3 (see above)
		CoalesceFetches: 1,
		Hyper:           optim.DefaultHyper(),
		GradAccumSteps:  1,
		Clock:           v,
	})
	if err != nil {
		t.Fatal(err)
	}
	realSeries := metrics.Series{Warmup: warmup}
	for i := 0; i < iters; i++ {
		it, iterErr := eng.TrainIteration(i)
		if iterErr != nil {
			eng.Close()
			t.Fatal(iterErr)
		}
		realSeries.Append(it)
	}
	eng.Close()
	real := realSeries.Mean()

	// --- Simulator on the same rig. ---
	// Compute rates are set absurdly high because engine CPU work costs
	// zero virtual time; FullDuplex mirrors Throttled's independent
	// read/write buckets; alpha 0 because a single worker never contends.
	tb := cluster.Testbed{
		Name:         "drift-rig",
		GPUsPerNode:  1,
		GPU:          cluster.GPU{Name: "virtual", MemBytes: 1 << 40, D2HBandwidth: 1e18, TFLOPS: 1e9},
		CPUCores:     8,
		HostMemBytes: 1 << 40,
		NVMe: cluster.StorageTierSpec{
			Name: "nvme", ReadBW: readBW, WriteBW: writeBW,
			SharedNode: true, InterferenceAlpha: 0,
		},
		CPUUpdateParamsPerSec: 1e18,
		GPUUpdateParamsPerSec: 1e18,
		CPUConvertBytesPerSec: 1e18,
		InterconnectBW:        1e18,
	}
	res, err := Run(Config{
		Testbed: tb,
		Model:   model.Config{Name: "drift-32k", NominalParams: params},
		Approach: Approach{
			Name:          "engine-mirror",
			Order:         hostcache.Alternating,
			SkipGradFlush: true,
			IOWorkers:     2,
			PriorityIO:    true,
		},
		SubgroupParams: sgParams,
		Iterations:     iters,
		Warmup:         warmup,
		FullDuplex:     true,
		CacheSlots:     3,
		PrefetchDepth:  3, // the engine's derived max(2, 2 workers + 1 tier)
	})
	if err != nil {
		t.Fatal(err)
	}
	sim := res.Mean

	t.Logf("update: sim %.4fs real %.4fs (drift %.3f)", sim.Phases.Update, real.Phases.Update,
		relDrift(sim.Phases.Update, real.Phases.Update))
	t.Logf("total:  sim %.4fs real %.4fs (drift %.3f)", sim.Phases.Total(), real.Phases.Total(),
		relDrift(sim.Phases.Total(), real.Phases.Total()))
	t.Logf("read:   sim %.0fB real %.0fB (drift %.5f)", sim.BytesRead, real.BytesRead,
		relDrift(sim.BytesRead, real.BytesRead))
	t.Logf("write:  sim %.0fB real %.0fB (drift %.5f)", sim.BytesWritten, real.BytesWritten,
		relDrift(sim.BytesWritten, real.BytesWritten))
	t.Logf("cache:  sim %d/%d real %d/%d (hits/misses)",
		sim.CacheHits, sim.CacheMisses, real.CacheHits, real.CacheMisses)

	// The cache policy is shared code over identical order and capacity:
	// steady-state hits and misses must agree exactly.
	if sim.CacheHits != real.CacheHits || sim.CacheMisses != real.CacheMisses {
		t.Errorf("cache behaviour diverged: sim %d hits/%d misses, real %d hits/%d misses",
			sim.CacheHits, sim.CacheMisses, real.CacheHits, real.CacheMisses)
	}
	// Raw bytes differ only by the 16-byte subgroup header the sim omits.
	if d := relDrift(sim.BytesRead, real.BytesRead); d > driftTolBytes {
		t.Errorf("read-byte drift %.4f exceeds %.4f (sim %.0f, real %.0f)",
			d, driftTolBytes, sim.BytesRead, real.BytesRead)
	}
	// Writes carry one extra degree of freedom the reads don't: the
	// engine's flushes are asynchronous and accounted at completion, so
	// the flush of the last subgroup of a measured iteration can land
	// just past the measurement boundary — the post-warmup mean then
	// gains or loses up to one flush quantum depending on real-machine
	// scheduling. Allow exactly that, on top of the relative tolerance.
	flushSlack := (16 + 12*float64(sgParams)) / float64(iters-warmup)
	if d := math.Abs(sim.BytesWritten - real.BytesWritten); d > driftTolBytes*real.BytesWritten+flushSlack {
		t.Errorf("write-byte drift %.0fB exceeds %.0fB + one flush quantum (sim %.0f, real %.0f)",
			d, driftTolBytes*real.BytesWritten, sim.BytesWritten, real.BytesWritten)
	}
	// Timing: the update phase is where all modelled I/O lives.
	if d := relDrift(sim.Phases.Update, real.Phases.Update); d > driftTolTime {
		t.Errorf("update-phase drift %.3f exceeds %.2f (sim %.4fs, real %.4fs)",
			d, driftTolTime, sim.Phases.Update, real.Phases.Update)
	}
	if d := relDrift(sim.Phases.Total(), real.Phases.Total()); d > driftTolTime {
		t.Errorf("iteration drift %.3f exceeds %.2f (sim %.4fs, real %.4fs)",
			d, driftTolTime, sim.Phases.Total(), real.Phases.Total())
	}
	if real.Phases.Update <= 0 || sim.Phases.Update <= 0 {
		t.Errorf("degenerate run: sim update %.4fs, real update %.4fs",
			sim.Phases.Update, real.Phases.Update)
	}
}
