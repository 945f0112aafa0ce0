// Command mlptrain runs the real offloading engine end-to-end on a
// scaled-down model with bandwidth-throttled storage tiers, printing the
// per-iteration phase breakdown — the laptop-scale analogue of one
// training run from the paper.
//
// Usage:
//
//	mlptrain                          # MLP-Offload, 4M params, mem tiers
//	mlptrain -mode baseline           # DeepSpeed-ZeRO-3-shaped run
//	mlptrain -params 8000000 -iters 8
//	mlptrain -dir /tmp/offload        # file-backed tiers instead of RAM
//	mlptrain -dir /tmp/offload -checkpoint-every 2   # restorable checkpoints
//	mlptrain -dir /tmp/offload -resume               # continue a crashed run
//
// Elastic multi-process training (one coordinator, N members; the
// members' -dir must point at shared storage):
//
//	mlptrain -coordinator 2 -addr 127.0.0.1:7070 -iters 8 -checkpoint-every 2
//	mlptrain -join 127.0.0.1:7070 -rank 0 -dir /shared/run
//	mlptrain -join 127.0.0.1:7070 -rank 1 -dir /shared/run
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	mlpoffload "github.com/datastates/mlpoffload"
)

// ckptPrefix namespaces this command's checkpoint keys.
const ckptPrefix = "mlptrain"

func main() {
	var (
		mode      = flag.String("mode", "mlp", "mlp | baseline")
		params    = flag.Int64("params", 4_000_000, "shard parameters")
		subgroup  = flag.Int64("subgroup", 250_000, "subgroup size in parameters")
		iters     = flag.Int("iters", 6, "training iterations (total; -resume continues toward this target)")
		dir       = flag.String("dir", "", "directory for file-backed tiers (empty = in-memory)")
		throttle  = flag.Bool("throttle", true, "emulate Table-1-scaled tier bandwidths")
		workers   = flag.Int("update-workers", 0, "update-phase pipeline parallelism (0 = auto from GOMAXPROCS, 1 = paper's sequential update)")
		kernels   = flag.Int("kernel-workers", 0, "shared kernel worker pool for Adam/codec kernels (0 = auto, 1 = serial; bit-identical at any width)")
		coalesce  = flag.Int("coalesce", 0, "adjacent same-tier fetches batched into one vectored read (0 = auto, 1 = off)")
		direct    = flag.Bool("direct", false, "O_DIRECT file I/O on file-backed tiers where supported (requires -dir)")
		ckptEvery = flag.Int("checkpoint-every", 0, "write a restorable checkpoint every N iterations (0 = off)")
		ckptKeep  = flag.Int("keep-checkpoints", 2, "retain only the newest N checkpoints (0 = keep all)")
		resume    = flag.Bool("resume", false, "restore the latest checkpoint before training (requires -dir)")
		codec     = flag.String("codec", "", `tier codec middleware: "flate+crc" (compress + integrity), "flate", "crc", "" = off`)

		coordN    = flag.Int("coordinator", 0, "run as elastic coordinator for N members (with -addr, -iters, -checkpoint-every)")
		join      = flag.String("join", "", "run as elastic member: coordinator address to dial (with -rank, shared -dir)")
		addr      = flag.String("addr", "127.0.0.1:0", "elastic coordinator listen address")
		rank      = flag.Int("rank", 0, "elastic member rank")
		hb        = flag.Duration("heartbeat", 500*time.Millisecond, "elastic heartbeat cadence")
		hbTimeout = flag.Duration("heartbeat-timeout", 2*time.Second, "elastic missed-heartbeat death threshold")
		killAt    = flag.Int("kill-at", 0, "elastic fault drill: member falls silent after computing this iteration (0 = off)")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mlptrain: "+format+"\n", args...)
		os.Exit(1)
	}

	if *coordN > 0 || *join != "" {
		o := elasticOpts{
			workers: *coordN, join: *join, addr: *addr, rank: *rank, dir: *dir,
			params: *params, subgroup: *subgroup, iters: *iters, ckptEvery: *ckptEvery,
			hb: *hb, hbTimeout: *hbTimeout, killAt: *killAt,
		}
		if *coordN > 0 {
			runElasticCoordinator(o, fail)
		} else {
			runElasticMember(o, fail)
		}
		return
	}

	codecSpec, err := mlpoffload.ParseCodecSpec(*codec)
	if err != nil {
		fail("%v", err)
	}

	// mkRawTier builds the backing store; mkTier adds bandwidth emulation
	// (checkpoint storage is not throttled — only training tiers model
	// Table-1 devices).
	mkRawTier := func(name string) mlpoffload.Tier {
		if *dir != "" {
			t, err := mlpoffload.NewFileTier(name, filepath.Join(*dir, name),
				mlpoffload.WithDirectIO(*direct))
			if err != nil {
				fail("%v", err)
			}
			return t
		}
		return mlpoffload.NewMemTier(name)
	}
	if *direct && *dir == "" {
		fail("-direct needs file-backed tiers: pass -dir")
	}
	mkTier := func(name string) mlpoffload.Tier {
		t := mkRawTier(name)
		if *throttle {
			// Table-1 ratios scaled to laptop speeds: NVMe 690/530 MB/s,
			// PFS 360/360 MB/s.
			spec := mlpoffload.ThrottleSpec{ReadBW: 690e6, WriteBW: 530e6, InterferenceAlpha: 0.08}
			if name == "pfs" {
				spec = mlpoffload.ThrottleSpec{ReadBW: 360e6, WriteBW: 360e6, InterferenceAlpha: 0.05}
			}
			t = mlpoffload.NewThrottledTier(t, spec)
		}
		return t
	}

	// TierSpec.Codec has the engine wrap each training tier in the codec
	// middleware; the nominal bandwidths stay the device rates.
	nvme := mlpoffload.TierSpec{Tier: mkTier("nvme"), ReadBW: 690e6, WriteBW: 530e6, Codec: codecSpec}
	// A file-backed "pfs" survives process teardown, so subgroups resident
	// there are pre-staged for checkpoints; an in-memory one is volatile.
	pfs := mlpoffload.TierSpec{Tier: mkTier("pfs"), ReadBW: 360e6, WriteBW: 360e6, Persistent: *dir != "", Codec: codecSpec}

	var cfg mlpoffload.EngineConfig
	switch *mode {
	case "baseline":
		cfg = mlpoffload.BaselineConfig(0, *params, *subgroup, []mlpoffload.TierSpec{nvme})
	case "mlp":
		locks := mlpoffload.NewNodeLocks(true)
		cfg = mlpoffload.MLPConfig(0, *params, *subgroup, []mlpoffload.TierSpec{nvme, pfs}, locks)
	default:
		fail("unknown mode %q", *mode)
	}
	cfg.UpdateWorkers = *workers
	cfg.KernelWorkers = *kernels
	cfg.CoalesceFetches = *coalesce

	eng, err := mlpoffload.NewEngine(cfg)
	if err != nil {
		fail("%v", err)
	}
	defer eng.Close()

	ctx := context.Background()
	var ckptTier mlpoffload.Tier
	if *ckptEvery > 0 || *resume {
		if *resume && *dir == "" {
			fail("-resume needs file-backed tiers: pass -dir")
		}
		ckptTier = mkRawTier("ckpt")
		if codecSpec.Enabled() {
			// Checkpoint objects cross the codec too: less checkpoint I/O,
			// and every stored object is integrity-checked on restore.
			ct, err := mlpoffload.NewCodecTier(ckptTier, codecSpec)
			if err != nil {
				fail("%v", err)
			}
			ckptTier = ct
		}
	}
	// resolveTier maps manifest tier names (pre-staged snapshots) back to
	// the training tiers, for retention pruning.
	resolveTier := func(name string) mlpoffload.Tier {
		switch name {
		case "nvme":
			return nvme.Tier
		case "pfs":
			return pfs.Tier
		}
		return nil
	}

	start := 0
	if *resume {
		r := mlpoffload.NewCheckpointReader(ckptTier, ckptPrefix)
		step, err := r.LatestStep(ctx)
		if err != nil {
			fail("resume: %v", err)
		}
		m, err := r.ReadManifest(ctx, step)
		if err != nil {
			fail("resume: %v", err)
		}
		if err := eng.Restore(ctx, r, m); err != nil {
			fail("resume: %v", err)
		}
		start = m.Step
		fmt.Printf("resumed from checkpoint step %d (pre-staging saved %.0f%% of checkpoint I/O)\n",
			start, m.Savings()*100)
	}
	var writer *mlpoffload.CheckpointWriter
	if *ckptEvery > 0 {
		writer = mlpoffload.NewCheckpointWriter(ckptTier, ckptPrefix)
		defer writer.Close()
	}

	if start >= *iters {
		fmt.Printf("checkpoint already at iteration %d >= -iters %d; nothing to do\n", start, *iters)
		return
	}
	fmt.Printf("mode=%s params=%d subgroups=%d placement=%s\n",
		*mode, *params, eng.Subgroups(), eng.Plan().Ratio())
	fmt.Printf("%-5s %-9s %-9s %-9s %-9s %-7s %-7s\n",
		"iter", "fwd(s)", "bwd(s)", "upd(s)", "total(s)", "hits", "misses")
	for i := start; i < *iters; i++ {
		it, err := eng.TrainIteration(i)
		if err != nil {
			fail("iteration %d: %v", i, err)
		}
		fmt.Printf("%-5d %-9.3f %-9.3f %-9.3f %-9.3f %-7d %-7d\n",
			i, it.Phases.Forward, it.Phases.Backward, it.Phases.Update,
			it.Phases.Total(), it.CacheHits, it.CacheMisses)
		if writer != nil && (i+1-start)%*ckptEvery == 0 {
			m, err := eng.Checkpoint(ctx, i+1, writer)
			if err != nil {
				fail("checkpoint at iteration %d: %v", i, err)
			}
			fmt.Printf("      checkpoint step %d committed (pre-staging saved %.0f%% of checkpoint I/O)\n",
				m.Step, m.Savings()*100)
			r := mlpoffload.NewCheckpointReader(ckptTier, ckptPrefix)
			if _, err := r.Prune(ctx, *ckptKeep, resolveTier); err != nil {
				fail("prune checkpoints: %v", err)
			}
			if _, err := r.SweepOrphans(ctx, []mlpoffload.Tier{nvme.Tier, pfs.Tier}); err != nil {
				fail("sweep checkpoints: %v", err)
			}
		}
	}
	m := eng.Series().Mean()
	fmt.Printf("\nmean (after warmup): total=%.3fs update=%.3fs updThroughput=%.1f Mparams/s effIO=%.1f MB/s hitRate=%.0f%%\n",
		m.Phases.Total(), m.Phases.Update, m.UpdateThroughput(), m.EffectiveIO()/1e6, m.HitRate()*100)
	if codecSpec.Enabled() {
		fmt.Printf("codec %s: %.2fx compression (wire %.1f MB/s vs effective %.1f MB/s), %d integrity retries\n",
			codecSpec, m.CompressionRatio(), m.WireIO()/1e6, m.EffectiveIO()/1e6, eng.IntegrityRetries())
	}
}
