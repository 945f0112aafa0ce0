package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/datastates/mlpoffload/internal/checkpoint"
	"github.com/datastates/mlpoffload/internal/engine"
	"github.com/datastates/mlpoffload/internal/metrics"
	"github.com/datastates/mlpoffload/internal/ratelimit"
	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/tiercodec"
	"github.com/datastates/mlpoffload/internal/tierlock"
	"github.com/datastates/mlpoffload/internal/train"
)

const ckptPrefix = "e2e"

// rig is one set-up system under test: file-backed tiers in a directory
// of its own, and the engine (or node of engines) training over them.
type rig struct {
	wl  workload
	sc  scale
	in  *inputs
	rec *recorder // nil in untraced runs
	dir string

	files []*storage.FileTier
	tiers []engine.TierSpec
	ckpt  storage.Tier // nil unless wl.ckptEvery > 0
	locks *tierlock.Manager

	// Exactly one of eng and node is set.
	eng  *engine.Engine
	node *train.Node

	cfg  engine.Config // the single-rank config, kept for the restore
	iter int           // next iteration index
	last checkpoint.Manifest
}

// wrapTier is the test hook that puts a fault injector under a tier.
type wrapTier func(storage.Tier) storage.Tier

// newRig creates the tiers under parent, constructs the engine (state
// initialisation and initial offload) and runs the warm-up iterations:
// everything setup_s covers.
func newRig(wl workload, sc scale, in *inputs, rec *recorder, parent string, wrap wrapTier) (_ *rig, err error) {
	dir, err := os.MkdirTemp(parent, wl.name+"-")
	if err != nil {
		return nil, err
	}
	r := &rig{wl: wl, sc: sc, in: in, rec: rec, dir: dir}
	defer func() {
		if err != nil {
			r.close()
		}
	}()

	nvme, err := r.tierAt("nvme", nvmeReadBW, nvmeWriteBW, nvmeAlpha, wl.throttled, wrap)
	if err != nil {
		return nil, err
	}
	r.tiers = []engine.TierSpec{{Tier: nvme, ReadBW: nvmeReadBW, WriteBW: nvmeWriteBW, Codec: wl.codec}}
	if !wl.baseline {
		pfs, err := r.tierAt("pfs", pfsReadBW, pfsWriteBW, pfsAlpha, wl.throttled, wrap)
		if err != nil {
			return nil, err
		}
		// A file-backed pfs survives the job, so subgroups resident there
		// are pre-staged for checkpoints.
		r.tiers = append(r.tiers, engine.TierSpec{Tier: pfs, ReadBW: pfsReadBW, WriteBW: pfsWriteBW, Persistent: true, Codec: wl.codec})
	}
	if wl.ckptEvery > 0 {
		// The checkpoint device is always throttled: it models a remote
		// store whatever the training tiers are.
		ck, err := r.tierAt("ckpt", ckptReadBW, ckptWriteBW, 0, true, nil)
		if err != nil {
			return nil, err
		}
		r.ckpt = ck
		if wl.codec.Enabled() {
			if r.ckpt, err = tiercodec.New(ck, wl.codec); err != nil {
				return nil, err
			}
		}
	}

	sgp := sc.subgroupParams(wl)
	perRank := sc.params / int64(wl.ranks)
	mutate := func(rank int, c *engine.Config) {
		c.HostCacheSlots = hostCacheSlots
		if wl.fixedPlacement {
			c.AdaptivePlacement = false
		}
		c.BatchGrad = in.batchGrad(rank, rec)
		c.InitParams = func(i int64) float32 { return in.initParam(rank, i) }
	}
	if wl.ranks > 1 {
		r.node, err = train.NewNode(train.NodeConfig{
			Workers: wl.ranks, ParamsPerWorker: perRank, SubgroupParams: sgp,
			Tiers: r.tiers, MLP: !wl.baseline, Mutate: mutate,
		})
		if err != nil {
			return nil, err
		}
		r.locks = r.node.Locks()
	} else {
		if wl.baseline {
			r.cfg = engine.BaselineConfig(0, perRank, sgp, r.tiers)
		} else {
			r.locks = tierlock.NewManager(true)
			r.cfg = engine.MLPConfig(0, perRank, sgp, r.tiers, r.locks)
		}
		mutate(0, &r.cfg)
		if r.eng, err = engine.New(r.cfg); err != nil {
			return nil, err
		}
	}
	for i := 0; i < warmupIters; i++ {
		if _, err := r.step(); err != nil {
			return nil, fmt.Errorf("warm-up iteration %d: %w", i, err)
		}
	}
	return r, nil
}

// tierAt builds spanTier(Throttled(FileTier)) — the throttle only when
// asked, the contention curve only where ranks share the device.
func (r *rig) tierAt(name string, readBW, writeBW, alpha float64, throttled bool, wrap wrapTier) (storage.Tier, error) {
	ft, err := storage.NewFileTier(name, filepath.Join(r.dir, name))
	if err != nil {
		return nil, err
	}
	r.files = append(r.files, ft)
	var t storage.Tier = ft
	if wrap != nil {
		t = wrap(t)
	}
	if throttled {
		cfg := storage.ThrottleConfig{ReadBW: readBW, WriteBW: writeBW}
		if r.wl.ranks > 1 && alpha > 0 {
			cfg.Curve = ratelimit.InterferenceCurve(alpha)
		}
		t = storage.NewThrottled(t, cfg)
	}
	if r.rec != nil {
		t = &spanTier{inner: t, rec: r.rec}
	}
	return t, nil
}

// stepResult is one iteration as the public API reports it: the merged
// counters of all ranks, with phase times the slowest rank's.
type stepResult struct {
	it      metrics.Iteration
	perRank []metrics.Iteration
}

// step runs the next training iteration.
func (r *rig) step() (stepResult, error) {
	if r.node != nil {
		res, err := r.node.TrainIteration()
		if err != nil {
			return stepResult{}, err
		}
		var it metrics.Iteration
		for _, w := range res.PerWorker {
			it.Merge(w)
		}
		it.Phases = res.Node.Phases
		r.iter++
		return stepResult{it: it, perRank: res.PerWorker}, nil
	}
	it, err := r.eng.TrainIteration(r.iter)
	if err != nil {
		return stepResult{}, err
	}
	r.iter++
	return stepResult{it: it, perRank: []metrics.Iteration{it}}, nil
}

func (r *rig) engines() []*engine.Engine {
	if r.node != nil {
		return r.node.Workers()
	}
	return []*engine.Engine{r.eng}
}

// checkpointNow writes a checkpoint at the current iteration boundary.
func (r *rig) checkpointNow(ctx context.Context) error {
	w := checkpoint.NewWriter(r.ckpt, ckptPrefix)
	defer w.Close()
	m, err := r.eng.Checkpoint(ctx, r.iter, w)
	if err != nil {
		return err
	}
	r.last = m
	return nil
}

// restoreLast replaces the engine with a fresh one restored from the last
// checkpoint, over the same tiers, and returns the restored parameters.
// It is timed by the caller from here until the gather returns.
func (r *rig) restoreLast(ctx context.Context) ([]float32, error) {
	r.eng.Close()
	r.eng = nil
	rd := checkpoint.NewReader(r.ckpt, ckptPrefix)
	m, err := rd.ReadManifest(ctx, r.last.Step)
	if err != nil {
		return nil, err
	}
	eng, err := engine.NewRestored(ctx, r.cfg, rd, m)
	if err != nil {
		return nil, err
	}
	r.eng = eng
	return r.gather()
}

// gather returns every rank's FP32 master parameters, rank-major.
func (r *rig) gather() ([]float32, error) {
	if r.node != nil {
		return r.node.GatherAll()
	}
	out := make([]float32, r.cfg.Params)
	if err := r.eng.GatherParams(out); err != nil {
		return nil, err
	}
	return out, nil
}

// close shuts the engines down and removes the rig's directory. It is
// safe on a partly built rig and safe to repeat.
func (r *rig) close() error {
	if r.node != nil {
		r.node.Close()
	}
	if r.eng != nil {
		r.eng.Close()
	}
	var errs []error
	for _, f := range r.files {
		errs = append(errs, f.Close())
	}
	errs = append(errs, os.RemoveAll(r.dir))
	return errors.Join(errs...)
}
