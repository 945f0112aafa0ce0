// Package train orchestrates multi-worker training on one node: one
// engine per GPU-attached worker process, all sharing the node's storage
// tiers and the node-level exclusive-access lock manager, synchronized at
// iteration boundaries like data-parallel replicas.
//
// This is the deployment shape of the paper's experiments (4 workers per
// node on both testbeds) expressed over the real engine.
package train

import (
	"context"
	"fmt"
	"sync"

	"github.com/datastates/mlpoffload/internal/checkpoint"
	"github.com/datastates/mlpoffload/internal/engine"
	"github.com/datastates/mlpoffload/internal/metrics"
	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/tierlock"
)

// NodeConfig configures a multi-worker training node.
type NodeConfig struct {
	// Workers is the number of worker processes (GPUs) on the node.
	Workers int
	// ParamsPerWorker is each worker's shard size.
	ParamsPerWorker int64
	// SubgroupParams is the subgroup granularity.
	SubgroupParams int64
	// Tiers are the node's shared storage paths.
	Tiers []engine.TierSpec
	// MLP selects MLP-Offload mode (all design principles) vs the
	// ZeRO-3-shaped baseline.
	MLP bool
	// Mutate, when non-nil, adjusts each worker's engine config before
	// construction (ablation hooks).
	Mutate func(rank int, cfg *engine.Config)
}

// Node is a running multi-worker training node.
type Node struct {
	cfg     NodeConfig
	locks   *tierlock.Manager
	engines []*engine.Engine
	iter    int
}

// NewNode constructs all worker engines. Construction offloads every
// worker's initial optimizer state to the tiers; the workers are
// independent processes in the paper's deployment, so their engines are
// built concurrently (Mutate still runs rank by rank, before any of
// them). If any construction fails, every engine built is closed.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("train: Workers must be positive, got %d", cfg.Workers)
	}
	n := &Node{cfg: cfg, locks: tierlock.NewManager(cfg.MLP)}
	ecs := make([]engine.Config, cfg.Workers)
	for rank := range ecs {
		if cfg.MLP {
			ecs[rank] = engine.MLPConfig(rank, cfg.ParamsPerWorker, cfg.SubgroupParams, cfg.Tiers, n.locks)
		} else {
			ecs[rank] = engine.BaselineConfig(rank, cfg.ParamsPerWorker, cfg.SubgroupParams, cfg.Tiers)
		}
		if cfg.Mutate != nil {
			cfg.Mutate(rank, &ecs[rank])
		}
	}
	n.engines = make([]*engine.Engine, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for rank, ec := range ecs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.engines[rank], errs[rank] = engine.New(ec)
		}()
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			n.Close()
			return nil, fmt.Errorf("train: worker %d: %w", rank, err)
		}
	}
	return n, nil
}

// Workers returns the per-worker engines (index = rank).
func (n *Node) Workers() []*engine.Engine { return n.engines }

// Locks returns the node's tier lock manager.
func (n *Node) Locks() *tierlock.Manager { return n.locks }

// IterationResult aggregates one synchronized iteration across workers.
type IterationResult struct {
	// PerWorker holds each rank's measurements.
	PerWorker []metrics.Iteration
	// Node is the node-level view: phase times are the max across
	// workers (the data-parallel barrier semantics), counters are summed.
	Node metrics.Iteration
}

// TrainIteration runs one data-parallel iteration: all workers execute
// concurrently and the call returns when the slowest finishes (the
// synchronization point of the update phase).
func (n *Node) TrainIteration() (IterationResult, error) {
	res := IterationResult{PerWorker: make([]metrics.Iteration, len(n.engines))}
	errs := make([]error, len(n.engines))
	var wg sync.WaitGroup
	for rank, e := range n.engines {
		wg.Add(1)
		go func(rank int, e *engine.Engine) {
			defer wg.Done()
			it, err := e.TrainIteration(n.iter)
			res.PerWorker[rank] = it
			errs[rank] = err
		}(rank, e)
	}
	wg.Wait()
	n.iter++
	for rank, err := range errs {
		if err != nil {
			return res, fmt.Errorf("train: worker %d iteration %d: %w", rank, n.iter-1, err)
		}
	}
	res.Node = aggregate(res.PerWorker)
	return res, nil
}

// Train runs iters synchronized iterations and returns the node-level
// series.
func (n *Node) Train(iters int) (*metrics.Series, error) {
	s := &metrics.Series{Warmup: min(2, iters-1)}
	for i := 0; i < iters; i++ {
		r, err := n.TrainIteration()
		if err != nil {
			return s, err
		}
		s.Append(r.Node)
	}
	return s, nil
}

// aggregate folds per-worker iterations into the node view.
func aggregate(workers []metrics.Iteration) metrics.Iteration {
	var out metrics.Iteration
	out.TierBytes = make(map[string]float64)
	for _, it := range workers {
		if it.Phases.Forward > out.Phases.Forward {
			out.Phases.Forward = it.Phases.Forward
		}
		if it.Phases.Backward > out.Phases.Backward {
			out.Phases.Backward = it.Phases.Backward
		}
		if it.Phases.Update > out.Phases.Update {
			out.Phases.Update = it.Phases.Update
		}
		out.ParamsUpdated += it.ParamsUpdated
		out.BytesRead += it.BytesRead
		out.BytesWritten += it.BytesWritten
		out.ReadTime += it.ReadTime
		out.WriteTime += it.WriteTime
		out.CacheHits += it.CacheHits
		out.CacheMisses += it.CacheMisses
		out.UpdateComputeTime += it.UpdateComputeTime
		for k, v := range it.TierBytes {
			out.TierBytes[k] += v
		}
	}
	return out
}

// rankPrefix namespaces one rank's checkpoint keys under the node prefix.
func rankPrefix(prefix string, rank int) string {
	return fmt.Sprintf("%s-rank%03d", prefix, rank)
}

// Checkpoint writes a coordinated checkpoint of every worker at the
// current iteration boundary: each rank flushes its plan and commits its
// manifest under a rank-qualified prefix on the shared checkpoint tier.
// The call returns after every rank's manifest has landed; a checkpoint is
// complete only when all ranks committed, which Resume enforces. It must
// not run concurrently with TrainIteration.
func (n *Node) Checkpoint(ctx context.Context, tier storage.Tier, prefix string) ([]checkpoint.Manifest, error) {
	mans := make([]checkpoint.Manifest, len(n.engines))
	errs := make([]error, len(n.engines))
	var wg sync.WaitGroup
	for rank, e := range n.engines {
		wg.Add(1)
		go func(rank int, e *engine.Engine) {
			defer wg.Done()
			w := checkpoint.NewWriter(tier, rankPrefix(prefix, rank))
			defer w.Close()
			mans[rank], errs[rank] = e.Checkpoint(ctx, n.iter, w)
		}(rank, e)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("train: checkpoint rank %d at iteration %d: %w", rank, n.iter, err)
		}
	}
	return mans, nil
}

// Resume restores every worker from the newest checkpoint step for which
// ALL ranks committed a valid manifest (a rank that crashed mid-checkpoint
// leaves that step incomplete — missing or torn manifest — and it is
// skipped), then positions the node at that iteration. It returns the
// iteration training continues from.
func (n *Node) Resume(ctx context.Context, tier storage.Tier, prefix string) (int, error) {
	// Intersect the per-rank restorable steps: ValidSteps checks manifest
	// content, so a truncated manifest from a mid-commit crash rolls the
	// node back to the previous common step instead of failing the resume.
	sets := make([][]int, len(n.engines))
	for rank := range n.engines {
		r := checkpoint.NewReader(tier, rankPrefix(prefix, rank))
		steps, err := r.ValidSteps(ctx)
		if err != nil {
			return 0, fmt.Errorf("train: resume rank %d: %w", rank, err)
		}
		sets[rank] = steps
	}
	step, ok := checkpoint.NewestCommonStep(sets)
	if !ok {
		return 0, fmt.Errorf("train: no complete checkpoint found under prefix %q", prefix)
	}

	errs := make([]error, len(n.engines))
	var wg sync.WaitGroup
	for rank, e := range n.engines {
		wg.Add(1)
		go func(rank int, e *engine.Engine) {
			defer wg.Done()
			r := checkpoint.NewReader(tier, rankPrefix(prefix, rank))
			m, err := r.ReadManifest(ctx, step)
			if err != nil {
				errs[rank] = err
				return
			}
			errs[rank] = e.Restore(ctx, r, m)
		}(rank, e)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("train: resume rank %d from step %d: %w", rank, step, err)
		}
	}
	n.iter = step
	return step, nil
}

// GatherAll fetches every worker's FP32 master parameters into one slice
// (rank-major), for verification.
func (n *Node) GatherAll() ([]float32, error) {
	per := int(n.cfg.ParamsPerWorker)
	out := make([]float32, per*len(n.engines))
	for rank, e := range n.engines {
		if err := e.GatherParams(out[rank*per : (rank+1)*per]); err != nil {
			return nil, fmt.Errorf("train: gather rank %d: %w", rank, err)
		}
	}
	return out, nil
}

// Close shuts down all workers. Idempotent.
func (n *Node) Close() {
	for _, e := range n.engines {
		if e != nil {
			e.Close()
		}
	}
}
