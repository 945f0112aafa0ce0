// Package mlpoffload is a Go implementation of MLP-Offload (SC '25):
// a multi-level, multi-path offloading engine for training models whose
// FP32 optimizer state exceeds host memory and must spill to third-level
// storage tiers (node-local NVMe, remote parallel file systems).
//
// The package exposes three layers:
//
//   - The real offloading engine (NewEngine): a concurrent
//     fetch/update/flush pipeline over pluggable storage tiers, running
//     real Adam updates on real FP32 state with real FP16 gradient
//     conversion. Use it with in-memory, file-backed or
//     bandwidth-throttled tiers. The update phase itself is a three-stage
//     pipeline — an issuer keeping max(2, UpdateWorkers+tiers) fetches in
//     flight, a pool of EngineConfig.UpdateWorkers goroutines running the
//     Adam updates, and an in-order committer driving the host cache and
//     lazy eviction flushes — so the CPU-side update of one subgroup
//     overlaps with tier reads and writes for its neighbours.
//     UpdateWorkers=1 (BaselineConfig's setting; MLPConfig auto-tunes it
//     from GOMAXPROCS) is the paper's sequential update phase; any worker
//     count yields bit-identical parameters. Tier traffic is priority-scheduled: every I/O op
//     carries a class (demand fetch > grad read > prefetch > flush >
//     checkpoint > migration) in a per-tier multi-level queue with
//     starvation-proof aging, so a background checkpoint or migration
//     stream can never head-of-line-block the update critical path. With
//     AdaptivePlacement, the per-iteration replan is an enforced
//     contract: two background migrators move displaced subgroups to
//     their newly planned tiers.
//     Checkpoints are restorable end to end: pre-staged persistent-tier
//     state is snapshotted under step-tagged keys, a manifest commits the
//     checkpoint, and Engine.Restore (or the coordinated
//     TrainNode.Resume) continues training bit-identically after a
//     crash, including checkpoints taken mid-migration. Tiers can carry
//     transparent codec middleware (TierSpec.Codec / NewCodecTier):
//     objects cross the device compressed (split into byte planes, the
//     sign/exponent plane Huffman-coded, incompressible bypass) and
//     CRC32-C-checked, multiplying
//     effective tier bandwidth on every fetch/flush/checkpoint/migration
//     path while corrupted objects surface as typed ErrCorruptObject
//     failures (retried when transient) instead of being consumed.
//
//   - The paper-scale simulator (RunSim): the same offloading policies
//     executed on a discrete-event simulator parameterized by the paper's
//     testbeds, for 40B-280B parameter configurations no laptop can hold.
//
//   - The experiment harness (RunExperiment): regenerates every table and
//     figure of the paper's evaluation.
//
// The four design principles of the paper — multi-path virtual tiers with
// bandwidth-proportional subgroup placement, node-exclusive tier access,
// cache-friendly alternating update order, and delayed in-place FP16→FP32
// gradient conversion — are all independently toggleable for ablation.
package mlpoffload

import (
	"context"
	"fmt"

	"github.com/datastates/mlpoffload/internal/checkpoint"
	"github.com/datastates/mlpoffload/internal/cluster"
	"github.com/datastates/mlpoffload/internal/engine"
	"github.com/datastates/mlpoffload/internal/experiments"
	"github.com/datastates/mlpoffload/internal/fp16"
	"github.com/datastates/mlpoffload/internal/hostcache"
	"github.com/datastates/mlpoffload/internal/metrics"
	"github.com/datastates/mlpoffload/internal/model"
	"github.com/datastates/mlpoffload/internal/nn"
	"github.com/datastates/mlpoffload/internal/optim"
	"github.com/datastates/mlpoffload/internal/ratelimit"
	"github.com/datastates/mlpoffload/internal/simrun"
	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/tiercodec"
	"github.com/datastates/mlpoffload/internal/tierlock"
	"github.com/datastates/mlpoffload/internal/train"
	"github.com/datastates/mlpoffload/internal/wire"
)

// ---- Real engine ----

// Engine is the real offloading runtime: one instance per worker process
// (one per GPU in the paper's deployment).
type Engine = engine.Engine

// EngineConfig configures an Engine. See BaselineConfig and MLPConfig for
// the two named presets.
type EngineConfig = engine.Config

// TierSpec couples a storage tier with its nominal bandwidths for
// placement (the paper's Eq. 1 inputs).
type TierSpec = engine.TierSpec

// GradFn produces synthetic gradients for the training loop.
type GradFn = engine.GradFn

// Iteration is one iteration's measurements (phase breakdown, I/O, cache
// behaviour).
type Iteration = metrics.Iteration

// Order is the subgroup update-order policy.
type Order = hostcache.Order

// Update-order policies: Sequential reproduces DeepSpeed ZeRO-3's
// cache-thrashing behaviour; Alternating is MLP-Offload's cache-friendly
// reordering.
const (
	Sequential  = hostcache.Sequential
	Alternating = hostcache.Alternating
)

// AdamHyper holds the optimizer hyperparameters.
type AdamHyper = optim.Hyper

// DefaultAdamHyper returns conventional LLM pre-training settings.
func DefaultAdamHyper() AdamHyper { return optim.DefaultHyper() }

// NewEngine builds and initializes an engine: the optimizer state is
// sharded into subgroups and flushed to the configured tiers.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// BaselineConfig returns a DeepSpeed-ZeRO-3-shaped engine configuration.
func BaselineConfig(rank int, params, subgroupParams int64, tiers []TierSpec) EngineConfig {
	return engine.BaselineConfig(rank, params, subgroupParams, tiers)
}

// MLPConfig returns an MLP-Offload engine configuration with all four
// design principles enabled. locks is the node-scoped exclusive-access
// manager shared by all engines on a node (see NewNodeLocks).
func MLPConfig(rank int, params, subgroupParams int64, tiers []TierSpec, locks *NodeLocks) EngineConfig {
	return engine.MLPConfig(rank, params, subgroupParams, tiers, locks)
}

// QuadraticGradFn returns gradients of 0.5*(p-target)^2 — training
// converges every parameter to target, which makes end-to-end validation
// of the offload path trivial.
func QuadraticGradFn(target float32) GradFn { return engine.QuadraticGradFn(target) }

// BatchGradFn computes a full shard's gradients in one pass from the FP16
// working copy — the hook for driving the engine with a real model.
type BatchGradFn = engine.BatchGradFn

// FP16 is a raw IEEE-754 binary16 value (the engine's working-copy
// element type).
type FP16 = fp16.Bits

// DecodeFP16 widens an FP16 buffer into FP32.
func DecodeFP16(dst []float32, src []FP16) int { return fp16.Decode(dst, src) }

// ---- Checkpoint / restore ----

// CheckpointWriter flushes a checkpoint plan to a persistent tier and
// commits its manifest (Engine.Checkpoint drives it).
type CheckpointWriter = checkpoint.Writer

// CheckpointReader discovers committed checkpoints through their
// manifests and reads them back for Engine.Restore.
type CheckpointReader = checkpoint.Reader

// CheckpointManifest is a checkpoint's commit record: step, the full
// subgroup→object map, shard geometry, and optimizer-progress state.
type CheckpointManifest = checkpoint.Manifest

// NewCheckpointWriter creates a checkpoint writer over a persistent tier.
// All keys are namespaced under prefix.
func NewCheckpointWriter(tier Tier, prefix string) *CheckpointWriter {
	return checkpoint.NewWriter(tier, prefix)
}

// NewCheckpointReader creates a reader over the checkpoint tier with the
// prefix the writer used.
func NewCheckpointReader(tier Tier, prefix string) *CheckpointReader {
	return checkpoint.NewReader(tier, prefix)
}

// ---- Multi-worker training node ----

// TrainNode is a multi-worker training node: one engine per GPU-attached
// worker, synchronized at iteration boundaries, with coordinated
// node-level checkpoint and resume.
type TrainNode = train.Node

// TrainNodeConfig configures a TrainNode.
type TrainNodeConfig = train.NodeConfig

// NewTrainNode constructs all worker engines and offloads their initial
// optimizer state.
func NewTrainNode(cfg TrainNodeConfig) (*TrainNode, error) { return train.NewNode(cfg) }

// ---- Elastic multi-rank training over TCP ----

// ElasticCoordinator is the server side of the elastic protocol: it
// admits members, releases iteration barriers, detects dead ranks by
// missed heartbeats, and drives rollback-and-re-shard recovery.
type ElasticCoordinator = train.Coordinator

// ElasticCoordinatorConfig configures an ElasticCoordinator.
type ElasticCoordinatorConfig = train.CoordinatorConfig

// ElasticMember is one elastic training member: a process owning one
// rank's engine (plus any ranks adopted during recoveries), joined to a
// coordinator over TCP.
type ElasticMember = train.Member

// ElasticMemberConfig configures an ElasticMember.
type ElasticMemberConfig = train.MemberConfig

// ElasticRunReport summarizes a completed elastic run; ElasticRecovery
// records one dead-rank recovery inside it.
type ElasticRunReport = train.RunReport
type ElasticRecovery = train.Recovery

// NewElasticCoordinator opens the coordinator's listener so members can
// start dialing before Run is called.
func NewElasticCoordinator(cfg ElasticCoordinatorConfig) (*ElasticCoordinator, error) {
	return train.NewCoordinator(cfg)
}

// RunElasticMember joins the coordinator and trains until the run
// completes. The returned member keeps its engines open for inspection;
// Close releases them.
func RunElasticMember(ctx context.Context, cfg ElasticMemberConfig) (*ElasticMember, error) {
	return train.RunMember(ctx, cfg)
}

// RetryBackoff is the clock-driven retry policy (jittered capped
// exponential) of the wire transport, here for
// ElasticMemberConfig.DialBackoff. Its zero value is usable. The engine
// paces its corrupt re-reads with a fixed policy of its own.
type RetryBackoff = wire.Backoff

// RecoverySpec models elastic failure/recovery economics — expected
// rollback cost and the Young/Daly optimal checkpoint interval.
type RecoverySpec = cluster.RecoverySpec

// ---- Real model substrate ----

// GPT is a small decoder-only transformer with a hand-written,
// gradient-checked backward pass, usable as a real gradient source for the
// engine via BatchGrad.
type GPT = nn.GPT

// GPTConfig shapes a GPT.
type GPTConfig = nn.GPTConfig

// NewGPT lays out a transformer over a flat parameter vector.
func NewGPT(cfg GPTConfig) (*GPT, error) { return nn.NewGPT(cfg) }

// ---- Storage tiers ----

// Tier is the storage abstraction subgroup objects move through.
type Tier = storage.Tier

// NodeLocks is the node-level exclusive tier access manager (the
// concurrency-control design principle).
type NodeLocks = tierlock.Manager

// NewNodeLocks creates a lock manager. Pass exclusive=false to reproduce
// the baseline's uncoordinated access.
func NewNodeLocks(exclusive bool) *NodeLocks { return tierlock.NewManager(exclusive) }

// NewMemTier returns an in-memory tier (tests, small experiments).
func NewMemTier(name string) Tier { return storage.NewMemTier(name) }

// FileTierOption configures a file tier (fd handle cache, O_DIRECT).
type FileTierOption = storage.FileTierOption

// WithFDCache bounds the tier's open-file handle cache (0 disables it).
func WithFDCache(n int) FileTierOption { return storage.WithFDCache(n) }

// WithDirectIO requests O_DIRECT file I/O where the platform and
// filesystem support it; unsupported combinations fall back to buffered
// I/O transparently.
func WithDirectIO(on bool) FileTierOption { return storage.WithDirectIO(on) }

// NewFileTier returns a directory-backed tier (a real NVMe or PFS mount).
func NewFileTier(name, dir string, opts ...FileTierOption) (Tier, error) {
	return storage.NewFileTier(name, dir, opts...)
}

// ThrottleSpec configures bandwidth emulation for a tier.
type ThrottleSpec struct {
	ReadBW  float64 // bytes/second
	WriteBW float64 // bytes/second
	// ReadBurst/WriteBurst are token-bucket capacities in bytes (0 = a
	// quarter second's worth). Set them below the object size when the
	// *observed* per-transfer bandwidth must track the configured rate
	// (adaptive-placement demos); leave 0 for plain rate limiting.
	ReadBurst  float64
	WriteBurst float64
	// InterferenceAlpha degrades aggregate efficiency under n concurrent
	// streams as 1/(1+alpha*(n-1)); 0 means an ideal device.
	InterferenceAlpha float64
}

// ---- Tier codec middleware ----

// CodecSpec selects transparent tier middleware: compression
// ("flate": byte planes split apart and the compressible ones entropy-
// coded, with an incompressible-data bypass) and/or per-object CRC32-C
// integrity. Set it on a TierSpec to have the engine wrap that tier at
// construction, or wrap standalone tiers with NewCodecTier. See
// ParseCodecSpec for the textual form.
type CodecSpec = tiercodec.Spec

// ParseCodecSpec parses a textual codec spec: "flate+crc" (recommended),
// "flate", "crc", "raw"; "" or "off" disable the middleware.
func ParseCodecSpec(text string) (CodecSpec, error) { return tiercodec.ParseSpec(text) }

// CodecTier is the codec middleware around a Tier. Objects written
// through it carry a self-describing header (codec id, raw length,
// CRC32-C), so any codec configuration reads any other's objects —
// checkpoints stay restorable across codec changes.
type CodecTier = tiercodec.Tier

// NewCodecTier wraps inner with codec middleware per spec.
func NewCodecTier(inner Tier, spec CodecSpec) (*CodecTier, error) {
	return tiercodec.New(inner, spec)
}

// ErrCorruptObject is returned by codec-tier reads that fail integrity
// or structural validation: the engine retries transient corruption and
// fails cleanly — never consuming garbage — when it persists.
var ErrCorruptObject = tiercodec.ErrCorrupt

// FaultConfig configures fault injection for resilience testing:
// read/write errors, transiently corrupted reads, persistently
// corrupted or torn writes, and latency spikes.
type FaultConfig = tiercodec.FaultConfig

// FaultTier is a fault-injecting Tier decorator. Stack it under a
// CodecTier to exercise integrity detection end to end.
type FaultTier = tiercodec.FaultTier

// NewFaultTier wraps inner with fault injection.
func NewFaultTier(inner Tier, cfg FaultConfig) *FaultTier {
	return tiercodec.NewFaultTier(inner, cfg)
}

// ThrottledTier is a bandwidth-emulated tier. SetRates changes its
// read/write bandwidths mid-run, which is how experiments simulate a tier
// slowing down under external load (and watch adaptive placement + live
// migration converge onto the new plan).
type ThrottledTier = storage.Throttled

// NewThrottledTier wraps a tier with Table-1-style bandwidth limits so a
// laptop reproduces NVMe/PFS behaviour at scaled-down rates.
func NewThrottledTier(inner Tier, spec ThrottleSpec) *ThrottledTier {
	var curve ratelimit.EfficiencyCurve
	if spec.InterferenceAlpha > 0 {
		curve = ratelimit.InterferenceCurve(spec.InterferenceAlpha)
	}
	return storage.NewThrottled(inner, storage.ThrottleConfig{
		ReadBW:     spec.ReadBW,
		WriteBW:    spec.WriteBW,
		ReadBurst:  spec.ReadBurst,
		WriteBurst: spec.WriteBurst,
		Curve:      curve,
	})
}

// ---- Models and testbeds ----

// Model is a transformer configuration (Table 2).
type Model = model.Config

// Models returns the paper's evaluation models (Table 2).
func Models() []Model { return model.Table2() }

// ModelByName looks up a Table 2 model or the 20B baseline.
func ModelByName(name string) (Model, error) { return model.ByName(name) }

// Testbed describes an evaluation platform (Table 1).
type Testbed = cluster.Testbed

// Testbed1 returns the JLSE 4xH100 platform.
func Testbed1() Testbed { return cluster.Testbed1() }

// Testbed2 returns the ALCF Polaris 4xA100 platform.
func Testbed2() Testbed { return cluster.Testbed2() }

// ---- Paper-scale simulation ----

// SimConfig configures a paper-scale simulated run.
type SimConfig = simrun.Config

// SimResult is a simulated run's measurements.
type SimResult = simrun.Result

// SimApproach names a bundle of design-principle toggles.
type SimApproach = simrun.Approach

// DeepSpeedZeRO3 is the baseline approach for RunSim.
func DeepSpeedZeRO3() SimApproach { return simrun.DeepSpeedZeRO3() }

// MLPOffload is the full approach for RunSim.
func MLPOffload() SimApproach { return simrun.MLPOffload() }

// RunSim simulates one node of the configured system at paper scale.
func RunSim(cfg SimConfig) (*SimResult, error) { return simrun.Run(cfg) }

// ---- Experiments ----

// ExperimentIDs lists the reproducible paper artifacts (tab1..fig15).
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one paper table or figure and returns its
// rendered text table. iterations <= 0 uses the paper's methodology
// (10 iterations, 2 warmups).
func RunExperiment(id string, iterations int) (string, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return "", err
	}
	opts := experiments.DefaultOptions()
	if iterations > 0 {
		opts.Iterations = iterations
		opts.Warmup = iterations / 5
	}
	return e.Run(opts)
}

// RunAllExperiments regenerates every artifact in paper order.
func RunAllExperiments(iterations int) (string, error) {
	out := ""
	for _, id := range experiments.IDs() {
		s, err := RunExperiment(id, iterations)
		if err != nil {
			return out, fmt.Errorf("experiment %s: %w", id, err)
		}
		out += s + "\n"
	}
	return out, nil
}
