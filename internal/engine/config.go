// Package engine implements the offloading runtime itself: the real,
// concurrent fetch/update/flush pipeline of Algorithm 1, operating on real
// FP32 optimizer state, real FP16 gradients, and real storage tiers.
//
// Two modes share one pipeline:
//
//   - Baseline (DeepSpeed ZeRO-3 + DeepNVMe): sequential subgroup order,
//     FP32 gradients upscaled and flushed during the backward pass and
//     re-fetched with the optimizer state (16 B/param), single storage
//     path, uncoordinated concurrent tier access.
//
//   - MLPOffload: alternating cache-friendly order, FP16 gradients held in
//     the host accumulation buffer and converted in place during the update
//     (12 B/param fetches, no backward flush), multi-path virtual tier with
//     bandwidth-proportional placement (Eq. 1), node-exclusive tier access.
//
// Every optimization is independently toggleable for the ablation studies
// (paper Figures 14 and 15).
package engine

import (
	"fmt"
	"runtime"

	"github.com/datastates/mlpoffload/internal/clock"
	"github.com/datastates/mlpoffload/internal/fp16"
	"github.com/datastates/mlpoffload/internal/hostcache"
	"github.com/datastates/mlpoffload/internal/optim"
	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/tiercodec"
	"github.com/datastates/mlpoffload/internal/tierlock"
)

// TierSpec couples a storage tier with its nominal bandwidths for
// placement seeding (the microbenchmark numbers of the paper's §3.3).
type TierSpec struct {
	Tier    storage.Tier
	ReadBW  float64 // bytes/second, nominal
	WriteBW float64 // bytes/second, nominal
	// Persistent marks tiers that survive job teardown (a PFS); subgroups
	// resident there are pre-staged for checkpoints (§3.3).
	Persistent bool
	// Codec, when enabled, wraps Tier in the transparent tiercodec
	// middleware at engine construction: objects cross this tier
	// compressed and/or CRC32-C-protected while the engine keeps
	// operating on raw subgroup bytes. The nominal bandwidths stay the
	// *device* rates — the placement estimator observes wire bytes, so
	// compression raises effective throughput without skewing the
	// bandwidth-proportional split.
	Codec tiercodec.Spec
}

// MinBW returns min(read, write), the Eq. 1 placement input.
func (t TierSpec) MinBW() float64 {
	if t.ReadBW < t.WriteBW {
		return t.ReadBW
	}
	return t.WriteBW
}

// GradFn produces the synthetic FP32 gradient for global parameter index i
// at a given iteration — the stand-in for the GPU backward pass.
type GradFn func(iter int, globalIndex int64, param float32) float32

// BatchGradFn computes a full shard's gradients at once from the FP16
// working copy of the parameters (the "GPU" view).
type BatchGradFn func(iter int, params16 []fp16.Bits, out []float32) error

// QuadraticGradFn returns gradients of 0.5*(p-target)^2, making end-to-end
// training converge to target — the integration-test objective that
// validates the whole offload path numerically.
func QuadraticGradFn(target float32) GradFn {
	return func(_ int, _ int64, p float32) float32 { return p - target }
}

// Config configures one engine instance (one worker process / one GPU in
// the paper's deployment).
type Config struct {
	// Rank identifies this worker (storage key namespace).
	Rank int
	// Params is this rank's shard size in parameters.
	Params int64
	// SubgroupParams is the subgroup size (paper methodology: 100e6 at
	// scale; tests use small values).
	SubgroupParams int64

	// Tiers are the third-level storage paths. One tier = NVMe-only
	// (baseline); several = MLP-Offload's multi-path virtual tier.
	Tiers []TierSpec

	// Order is the subgroup processing order policy.
	Order hostcache.Order
	// SkipGradFlush enables delayed in-place FP16→FP32 gradient
	// conversion ("Skip Gradients" ablation). When false the baseline
	// path upscales and flushes FP32 gradients during backward.
	SkipGradFlush bool
	// Locks is the node-scoped exclusive-access manager shared by all
	// engines on a node ("Process Atomic R/W" ablation). nil disables
	// concurrency control.
	Locks *tierlock.Manager
	// AdaptivePlacement re-plans the subgroup→tier split each iteration
	// from observed bandwidths (EWMA); the next update phase's eviction
	// writes move the displaced subgroups to their new tiers. Otherwise
	// the nominal split is kept.
	AdaptivePlacement bool

	// HostCacheSlots is the number of subgroups the host can keep resident
	// between phases (the paper's "minimum of three": flushing, updating,
	// prefetching).
	HostCacheSlots int
	// KernelWorkers sizes the engine-wide kernel worker pool that the
	// Adam update and the FP16 bulk codecs draw from — one shared
	// pool instead of per-call goroutine churn. Chunk boundaries are fixed
	// (kernpool.ChunkElems), so parameters are bit-identical at any worker
	// count. 0 auto-tunes to min(GOMAXPROCS, 16); 1 runs kernels serially
	// on the calling goroutine.
	KernelWorkers int
	// CoalesceFetches bounds the issuer's read-ahead coalescing: runs of
	// up to this many adjacent same-tier subgroup fetches are submitted as
	// one vectored tier operation (aio.SubmitReadVecClass) instead of one
	// op each — one scheduling decision and one device pass for the run.
	// Only active in SkipGradFlush mode (the baseline's interleaved
	// gradient reads break up runs anyway). 0 auto-tunes to
	// min(4, prefetch depth); 1 disables coalescing; values above the
	// prefetch depth are clamped to it.
	CoalesceFetches int
	// UpdateWorkers is the update-phase pipeline parallelism: how many
	// subgroups may run their Adam update concurrently while the issuer
	// keeps the prefetch depth's fetches in flight. 1 reproduces the
	// sequential single-goroutine update phase exactly; higher values
	// overlap the CPU-side update of subgroup k with tier reads for
	// k+1..k+d and the async flush of k-1, which pays off whenever the
	// phase is I/O-bound on a slow or asymmetric multi-path tier. The
	// commit order (and thus the cache-friendly alternating-order
	// residency) is preserved at any worker count. 0 auto-tunes to
	// GOMAXPROCS/2 clamped to [1, 4].
	//
	// The prefetch depth — how many fetches the issuer keeps in flight —
	// follows from it: max(2, UpdateWorkers+len(Tiers)), one fetch per
	// update worker plus one per storage path (see prefetchDepth).
	UpdateWorkers int

	// Hyper are the Adam hyperparameters.
	Hyper optim.Hyper
	// Grad generates synthetic gradients (nil = deterministic pseudo
	// gradients). Ignored when BatchGrad is set.
	Grad GradFn
	// BatchGrad, when non-nil, computes the whole shard's gradients in
	// one pass — the hook that connects a real model (e.g. internal/nn's
	// transformer) to the offloading engine. It receives the iteration
	// number and the FP16 working copy of the parameters and must fill
	// out (len == Params) with FP32 gradients.
	BatchGrad BatchGradFn
	// GradAccumSteps is the number of forward/backward passes per update
	// phase (>= 1).
	GradAccumSteps int
	// InitParams, when non-nil, initializes the FP32 master parameter at
	// each global index (nil = zeros). Real models need their proper
	// initialization (layernorm gains of 1 etc.).
	InitParams func(globalIndex int64) float32

	// CorruptRetries bounds how many times an update-phase fetch that
	// failed integrity validation (tiercodec.ErrCorrupt) is re-read
	// before the phase fails. Corruption injected in flight (a flaky
	// link, a torn transfer) re-reads clean; corruption at rest keeps
	// failing and surfaces as a clean phase error instead of a silently
	// consumed garbage update. The re-reads are paced by retryBackoff on
	// Clock. 0 defaults to 2; negative disables retries.
	CorruptRetries int

	// LossScaling enables dynamic loss scaling: gradient overflow (FP16
	// Inf/NaN) skips the optimizer step and halves the scale, as
	// mixed-precision training requires. Disabled by default because the
	// synthetic gradient generators produce finite values.
	LossScaling bool
	// ClipNorm applies global gradient-norm clipping across all
	// subgroups before the update (0 disables). Partial norms are
	// computed per subgroup during the backward pass; the global factor
	// is applied inside the update kernel's gradient view.
	ClipNorm float64

	// Clock is the engine-wide time source: it reaches the aio engines'
	// op stamps and aging pick, the corrupt re-read pacing, and the phase
	// stopwatches. nil means the wall clock (production); a virtual clock
	// (internal/clock) runs the whole engine on simulated time, which is
	// how the timing test suites and `iobench -virtual` finish bandwidth
	// scenarios in milliseconds.
	Clock clock.Clock
}

// BaselineConfig returns a DeepSpeed-ZeRO-3-shaped configuration over the
// given tiers (callers normally pass exactly one, the NVMe).
func BaselineConfig(rank int, params, subgroupParams int64, tiers []TierSpec) Config {
	return Config{
		Rank:           rank,
		Params:         params,
		SubgroupParams: subgroupParams,
		Tiers:          tiers,
		Order:          hostcache.Sequential,
		SkipGradFlush:  false,
		Locks:          nil,
		HostCacheSlots: 3,
		UpdateWorkers:  1,
		KernelWorkers:  1,
		Hyper:          optim.DefaultHyper(),
		GradAccumSteps: 1,
	}
}

// MLPConfig returns an MLP-Offload configuration with every optimization
// enabled. The pipeline widths are left at 0 — auto-tuned from
// GOMAXPROCS and the tier count by validate — where the baseline pins
// the paper's fixed knobs; numerics are unaffected either way (commit
// order and kernel chunking are deterministic at any width).
func MLPConfig(rank int, params, subgroupParams int64, tiers []TierSpec, locks *tierlock.Manager) Config {
	c := BaselineConfig(rank, params, subgroupParams, tiers)
	c.Order = hostcache.Alternating
	c.SkipGradFlush = true
	c.Locks = locks
	c.AdaptivePlacement = true
	c.UpdateWorkers = 0
	c.KernelWorkers = 0
	c.CoalesceFetches = 0
	return c
}

// validate normalizes and checks the configuration.
func (c *Config) validate() error {
	if c.Params <= 0 {
		return fmt.Errorf("engine: Params must be positive, got %d", c.Params)
	}
	if c.SubgroupParams <= 0 {
		return fmt.Errorf("engine: SubgroupParams must be positive, got %d", c.SubgroupParams)
	}
	if len(c.Tiers) == 0 {
		return fmt.Errorf("engine: at least one storage tier required")
	}
	for i, t := range c.Tiers {
		if t.Tier == nil {
			return fmt.Errorf("engine: tier %d has nil storage", i)
		}
		if t.MinBW() <= 0 {
			return fmt.Errorf("engine: tier %d (%s) needs positive nominal bandwidths", i, t.Tier.Name())
		}
	}
	if err := c.Hyper.Validate(); err != nil {
		return err
	}
	if c.HostCacheSlots < 0 {
		return fmt.Errorf("engine: negative HostCacheSlots")
	}
	for _, w := range []struct {
		name string
		v    int
	}{
		{"UpdateWorkers", c.UpdateWorkers},
		{"KernelWorkers", c.KernelWorkers},
		{"CoalesceFetches", c.CoalesceFetches},
	} {
		if w.v < 0 {
			return fmt.Errorf("engine: %s must be 0 (auto) or positive, got %d", w.name, w.v)
		}
	}
	c.autotune()
	if c.CorruptRetries == 0 {
		c.CorruptRetries = 2
	}
	if c.CorruptRetries < 0 {
		c.CorruptRetries = 0
	}
	if c.GradAccumSteps <= 0 {
		c.GradAccumSteps = 1
	}
	if c.Grad == nil && c.BatchGrad == nil {
		c.Grad = defaultGrad
	}
	return nil
}

// autotune resolves the zero-valued pipeline widths from GOMAXPROCS
// and the tier count — measurement-free derivations, so the resolved
// config is reproducible on a given machine shape. Positive values are
// taken as-is. None of the widths affect numerics (deterministic chunking
// and commit order), only overlap.
func (c *Config) autotune() {
	procs := runtime.GOMAXPROCS(0)
	if c.UpdateWorkers == 0 {
		// Half the cores drive subgroup pipelines; the rest serve kernel
		// fan-out and I/O completion. Past ~4 the update phase is
		// tier-bandwidth-bound, not pipeline-bound.
		c.UpdateWorkers = min(max(procs/2, 1), 4)
	}
	if c.KernelWorkers == 0 {
		// The kernels are memory-bandwidth-bound; past ~16 workers extra
		// chunk handoffs outweigh the remaining bandwidth.
		c.KernelWorkers = min(procs, 16)
	}
	depth := c.prefetchDepth()
	if c.CoalesceFetches == 0 {
		if c.SkipGradFlush {
			c.CoalesceFetches = min(4, depth)
		} else {
			c.CoalesceFetches = 1
		}
	}
	if c.CoalesceFetches > depth {
		// A batch wider than the prefetch window could not assemble
		// without stalling the issuer.
		c.CoalesceFetches = depth
	}
}

// prefetchDepth bounds the update phase's in-flight fetches: one per
// update worker plus one per storage path keeps every consumer and every
// device busy, and never fewer than 2 (DeepNVMe's double buffering).
// Valid once UpdateWorkers is resolved.
func (c *Config) prefetchDepth() int {
	return max(2, c.UpdateWorkers+len(c.Tiers))
}

// defaultGrad is a deterministic pseudo-gradient: bounded, varies with
// iteration and index, exercises FP16 rounding.
func defaultGrad(iter int, i int64, _ float32) float32 {
	h := uint64(i)*2654435761 + uint64(iter)*40503
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return (float32(h&0xFFFF)/65535 - 0.5) * 0.02
}
