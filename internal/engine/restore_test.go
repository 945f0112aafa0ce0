package engine

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/datastates/mlpoffload/internal/checkpoint"
	"github.com/datastates/mlpoffload/internal/storage"
)

// gather returns the engine's full FP32 master parameter vector.
func gather(t *testing.T, e *Engine) []float32 {
	t.Helper()
	out := make([]float32, e.cfg.Params)
	if err := e.GatherParams(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// trainRange runs iterations [from, to).
func trainRange(t *testing.T, e *Engine, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if _, err := e.TrainIteration(i); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

// restoreLatest restores e from the newest checkpoint under the reader.
func restoreLatest(t *testing.T, e *Engine, r *checkpoint.Reader) checkpoint.Manifest {
	t.Helper()
	ctx := context.Background()
	step, err := r.LatestStep(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.ReadManifest(ctx, step)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(ctx, r, m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestResumeBitIdentical is the round-trip correctness test: train k
// iterations, checkpoint, rebuild a fresh engine (fresh volatile tiers,
// shared persistent ones), restore, continue to n — parameters must be
// bit-identical to an uninterrupted n-iteration run. Gradients depend on
// the parameters, so any restore defect compounds immediately.
func TestResumeBitIdentical(t *testing.T) {
	const (
		params = 600
		sub    = 100
		k      = 3
		n      = 6
	)
	// mkCfg builds one run's config; persistent is the shared PFS-like
	// tier that survives the simulated crash (nil for the baseline case).
	cases := []struct {
		name  string
		mkCfg func(persistent storage.Tier) Config
	}{
		{"baseline", func(_ storage.Tier) Config {
			return BaselineConfig(0, params, sub, memTiers(1000))
		}},
		{"mlp", func(p storage.Tier) Config {
			tiers := []TierSpec{
				{Tier: storage.NewMemTier("nvme"), ReadBW: 690, WriteBW: 530},
				{Tier: p, ReadBW: 360, WriteBW: 360, Persistent: true},
			}
			cfg := MLPConfig(0, params, sub, tiers, nil)
			cfg.AdaptivePlacement = false
			return cfg
		}},
		{"adaptive", func(p storage.Tier) Config {
			// The slow tier lies about its bandwidth, so adaptive
			// replanning shifts subgroups away from it during training:
			// the restored engine starts from the nominal plan and must
			// rebuild state under a placement that differs from the one
			// the checkpoint was taken under.
			slow := storage.NewThrottled(p, storage.ThrottleConfig{
				ReadBW: 200 * 1024, WriteBW: 200 * 1024,
			})
			tiers := []TierSpec{
				{Tier: storage.NewMemTier("fast"), ReadBW: 1000, WriteBW: 1000},
				{Tier: slow, ReadBW: 1000, WriteBW: 1000, Persistent: true},
			}
			cfg := MLPConfig(0, params, sub, tiers, nil)
			cfg.AdaptivePlacement = true
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(p storage.Tier) Config {
				cfg := tc.mkCfg(p)
				cfg.Grad = QuadraticGradFn(3)
				cfg.Hyper.LR = 0.02
				return cfg
			}

			// Uninterrupted reference run on its own tiers.
			ref, err := New(mk(storage.NewMemTier("pfs")))
			if err != nil {
				t.Fatal(err)
			}
			trainRange(t, ref, 0, n)
			want := gather(t, ref)
			ref.Close()

			// Interrupted run: train k, checkpoint, crash.
			pfs := storage.NewMemTier("pfs") // survives the crash
			e1, err := New(mk(pfs))
			if err != nil {
				t.Fatal(err)
			}
			trainRange(t, e1, 0, k)
			ckptTier := storage.NewMemTier("ckpt")
			w := checkpoint.NewWriter(ckptTier, "run")
			m, err := e1.Checkpoint(context.Background(), k, w)
			if err != nil {
				t.Fatal(err)
			}
			w.Close()
			e1.Close() // crash: volatile tiers are rebuilt from scratch below

			// Restart: fresh engine, restore, continue.
			e2, err := New(mk(pfs))
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			got := restoreLatest(t, e2, checkpoint.NewReader(ckptTier, "run"))
			if got.Step != m.Step || got.AdamStep != k {
				t.Fatalf("restored manifest step %d/adam %d, want %d/%d", got.Step, got.AdamStep, m.Step, k)
			}
			// Host-cache residency was rebuilt from the manifest.
			hostOrigin := 0
			for _, ent := range got.Entries {
				if ent.Origin == "host" {
					hostOrigin++
				}
			}
			resident := 0
			for _, l := range e2.loc {
				if l == locHost {
					resident++
				}
			}
			if hostOrigin > 0 && resident == 0 {
				t.Errorf("no subgroup host-resident after restore (%d were at checkpoint time)", hostOrigin)
			}
			trainRange(t, e2, k, n)
			after := gather(t, e2)
			for i := range want {
				if after[i] != want[i] {
					t.Fatalf("%s: param %d differs after resume: %v vs uninterrupted %v",
						tc.name, i, after[i], want[i])
				}
			}
		})
	}
}

// TestCheckpointSnapshotSurvivesTraining is the staleness test: a
// checkpoint taken at step s must remain fully readable — manifest and
// every referenced object — after further update phases overwrite the
// live tier objects it was derived from.
func TestCheckpointSnapshotSurvivesTraining(t *testing.T) {
	ctx := context.Background()
	nvme := storage.NewMemTier("nvme")
	pfs := storage.NewMemTier("pfs")
	tiers := []TierSpec{
		{Tier: nvme, ReadBW: 2e9, WriteBW: 2e9},
		{Tier: pfs, ReadBW: 1e9, WriteBW: 1e9, Persistent: true},
	}
	mkCfg := func() Config {
		cfg := MLPConfig(0, 1000, 100, tiers, nil)
		cfg.AdaptivePlacement = false
		cfg.Grad = QuadraticGradFn(2)
		cfg.Hyper.LR = 0.05
		return cfg
	}
	e, err := New(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	trainRange(t, e, 0, 2)
	truth := gather(t, e) // parameters at the checkpoint boundary

	ckptTier := storage.NewMemTier("ckpt")
	w := checkpoint.NewWriter(ckptTier, "run")
	defer w.Close()
	m, err := e.Checkpoint(ctx, 2, w)
	if err != nil {
		t.Fatal(err)
	}
	if m.Savings() <= 0 {
		t.Fatal("no pre-staged subgroups — test needs a persistent tier share")
	}

	// Further training overwrites every live tier object...
	trainRange(t, e, 2, 5)

	// ...but the step-2 checkpoint must still verify and restore.
	resolve := func(name string) storage.Tier {
		switch name {
		case "nvme":
			return nvme
		case "pfs":
			return pfs
		}
		return nil
	}
	r := checkpoint.NewReader(ckptTier, "run")
	if err := r.Verify(ctx, m, resolve); err != nil {
		t.Fatalf("step-2 checkpoint corrupted by later training: %v", err)
	}
	// Restoring into a fresh engine (sharing the persistent tier) yields
	// the step-2 parameters, not the later ones. The fresh engine's tiers
	// must include the persistent one that holds the snapshots; its
	// volatile nvme starts empty.
	tiers2 := []TierSpec{
		{Tier: storage.NewMemTier("nvme"), ReadBW: 2e9, WriteBW: 2e9},
		{Tier: pfs, ReadBW: 1e9, WriteBW: 1e9, Persistent: true},
	}
	cfg2 := mkCfg()
	cfg2.Tiers = tiers2
	e2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	m2, err := r.ReadManifest(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(ctx, r, m2); err != nil {
		t.Fatal(err)
	}
	restored := gather(t, e2)
	for i := range truth {
		if restored[i] != truth[i] {
			t.Fatalf("param %d = %v after restore, want step-2 value %v", i, restored[i], truth[i])
		}
	}
}

// TestRestoreScalerAndCounters: loss-scaling state (scale, skip counters)
// and the Adam step count survive the round trip even when they diverge
// from the iteration count via a skipped step.
func TestRestoreScalerAndCounters(t *testing.T) {
	mkCfg := func() Config {
		cfg := BaselineConfig(0, 200, 50, memTiers(1000))
		cfg.SkipGradFlush = true
		cfg.LossScaling = true
		cfg.Grad = func(iter int, _ int64, _ float32) float32 {
			if iter == 1 {
				return float32(math.Inf(1)) // overflow: skip + halve scale
			}
			return 0.5
		}
		return cfg
	}
	ref, err := New(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	trainRange(t, ref, 0, 5)
	want := gather(t, ref)
	ref.Close()

	e1, err := New(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	trainRange(t, e1, 0, 3) // includes the skipped step
	wantScale := e1.Scaler().Scale()
	ckptTier := storage.NewMemTier("ckpt")
	w := checkpoint.NewWriter(ckptTier, "run")
	m, err := e1.Checkpoint(context.Background(), 3, w)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	e1.Close()
	if m.AdamStep != 2 || m.SkippedSteps != 1 {
		t.Fatalf("manifest adamStep=%d skipped=%d, want 2/1", m.AdamStep, m.SkippedSteps)
	}

	e2, err := New(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	restoreLatest(t, e2, checkpoint.NewReader(ckptTier, "run"))
	if e2.Scaler().Scale() != wantScale {
		t.Errorf("restored scale = %g, want %g", e2.Scaler().Scale(), wantScale)
	}
	if e2.SkippedSteps() != 1 {
		t.Errorf("restored skipped steps = %d, want 1", e2.SkippedSteps())
	}
	trainRange(t, e2, 3, 5)
	after := gather(t, e2)
	for i := range want {
		if after[i] != want[i] {
			t.Fatalf("param %d differs after resume: %v vs %v", i, after[i], want[i])
		}
	}
}

// TestCheckpointFailsOnFailedEvictionFlush: a lazy eviction flush that
// fails asynchronously must fail the next checkpoint (and land no
// manifest) instead of being silently swallowed by the drain — the live
// key still holds the previous object, so committing would capture stale
// state.
func TestCheckpointFailsOnFailedEvictionFlush(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("flush died")
	ft := &storage.FaultTier{
		Tier: storage.NewMemTier("t"),
		// Writes: 10 initial offloads (all landed when New returns), then 7
		// async eviction flushes during iteration 0's update phase; the 17th
		// write — one of the eviction flushes — fails.
		FailEvery:  17,
		Err:        boom,
		FailWrites: true,
	}
	cfg := BaselineConfig(0, 1000, 100, []TierSpec{{Tier: ft, ReadBW: 100, WriteBW: 100}})
	cfg.SkipGradFlush = true // keep the write stream to offloads + eviction flushes
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// The flush failure is asynchronous: the iteration itself succeeds.
	if _, err := e.TrainIteration(0); err != nil {
		t.Fatalf("iteration: %v", err)
	}
	ckptTier := storage.NewMemTier("ckpt")
	w := checkpoint.NewWriter(ckptTier, "run")
	defer w.Close()
	if _, err := e.Checkpoint(ctx, 1, w); !errors.Is(err, boom) {
		t.Fatalf("checkpoint err = %v, want the swallowed flush error", err)
	}
	r := checkpoint.NewReader(ckptTier, "run")
	if _, err := r.LatestStep(ctx); err == nil {
		t.Error("a manifest landed despite the failed flush")
	}
}

// TestRestoreRejectsMismatchedManifest: geometry and training numerics
// must match the engine.
func TestRestoreRejectsMismatchedManifest(t *testing.T) {
	ctx := context.Background()
	e1, err := New(BaselineConfig(0, 200, 50, memTiers(1000)))
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()
	run(t, e1, 1)
	ckptTier := storage.NewMemTier("ckpt")
	w := checkpoint.NewWriter(ckptTier, "run")
	defer w.Close()
	m, err := e1.Checkpoint(ctx, 1, w)
	if err != nil {
		t.Fatal(err)
	}
	r := checkpoint.NewReader(ckptTier, "run")

	other, err := New(BaselineConfig(0, 400, 50, memTiers(1000)))
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.Restore(ctx, r, m); err == nil {
		t.Error("restore accepted a manifest with mismatched geometry")
	}

	wrongRank, err := New(BaselineConfig(1, 200, 50, memTiers(1000)))
	if err != nil {
		t.Fatal(err)
	}
	defer wrongRank.Close()
	if err := wrongRank.Restore(ctx, r, m); err == nil {
		t.Error("restore accepted another rank's manifest")
	}

	// Same geometry, different mode (numerics): silent divergence, reject.
	modeCfg := BaselineConfig(0, 200, 50, memTiers(1000))
	modeCfg.SkipGradFlush = true
	wrongMode, err := New(modeCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer wrongMode.Close()
	if err := wrongMode.Restore(ctx, r, m); err == nil {
		t.Error("restore accepted a manifest taken under different numerics")
	}
}
