package engine

import (
	"context"
	"math"
	"testing"

	"github.com/datastates/mlpoffload/internal/checkpoint"
	"github.com/datastates/mlpoffload/internal/storage"
)

func TestLossScalingSkipsOverflowStep(t *testing.T) {
	cfg := BaselineConfig(0, 200, 50, memTiers(1000))
	cfg.SkipGradFlush = true
	cfg.LossScaling = true
	// Iteration 1 produces overflowing gradients; others are fine.
	cfg.Grad = func(iter int, _ int64, _ float32) float32 {
		if iter == 1 {
			return float32(math.Inf(1))
		}
		return 0.5
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	startScale := e.Scaler().Scale()
	run(t, e, 3)
	if e.SkippedSteps() != 1 {
		t.Errorf("skipped steps = %d, want 1", e.SkippedSteps())
	}
	if e.Scaler().Scale() != startScale/2 {
		t.Errorf("scale = %g, want halved %g", e.Scaler().Scale(), startScale/2)
	}
	// Parameters must have moved only for the two clean iterations.
	params := make([]float32, 200)
	if err := e.GatherParams(params); err != nil {
		t.Fatal(err)
	}
	if params[0] == 0 {
		t.Error("clean steps did not apply")
	}
}

func TestLossScalingDisabledByDefault(t *testing.T) {
	cfg := BaselineConfig(0, 100, 50, memTiers(1000))
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Scaler() != nil {
		t.Error("scaler should be nil when disabled")
	}
	run(t, e, 1)
	if e.SkippedSteps() != 0 {
		t.Error("no steps should be skipped")
	}
}

func TestGlobalGradClipping(t *testing.T) {
	// Gradients of constant 1.0 over 400 params have global norm 20.
	// With ClipNorm 2 the applied gradients scale by 0.1, so the first
	// Adam step (mhat/sqrt(vhat) invariant to scale!) — use sign check
	// via norm instead: verify GradNorm reports pre-clip value and params
	// move as with scaled grads.
	mk := func(clip float64) (*Engine, []float32) {
		cfg := BaselineConfig(0, 400, 100, memTiers(1000))
		cfg.SkipGradFlush = true
		cfg.ClipNorm = clip
		cfg.Grad = func(_ int, i int64, _ float32) float32 {
			if i == 0 {
				return 10 // one large component dominates the norm
			}
			return 0.001
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run(t, e, 1)
		out := make([]float32, 400)
		if err := e.GatherParams(out); err != nil {
			t.Fatal(err)
		}
		return e, out
	}
	eClip, clipped := mk(0.1)
	defer eClip.Close()
	eFree, free := mk(0)
	defer eFree.Close()
	if eClip.GradNorm() < 9.9 {
		t.Errorf("pre-clip global norm = %v, want ~10", eClip.GradNorm())
	}
	// Small components: clipping shrinks their effective gradient by
	// ~100x; with Adam's normalization the small-component step shrinks
	// dramatically relative to the unclipped run.
	if math.Abs(float64(clipped[1])) >= math.Abs(float64(free[1])) {
		t.Errorf("clipping did not damp small components: %v vs %v", clipped[1], free[1])
	}
}

func TestCheckpointPreStaging(t *testing.T) {
	// MLP engine with NVMe (volatile) + PFS (persistent): subgroups on the
	// PFS must be pre-staged; host + NVMe subgroups get flushed.
	tiers := []TierSpec{
		{Tier: storage.NewMemTier("nvme"), ReadBW: 2e9, WriteBW: 2e9},
		{Tier: storage.NewMemTier("pfs"), ReadBW: 1e9, WriteBW: 1e9, Persistent: true},
	}
	cfg := MLPConfig(0, 1000, 100, tiers, nil)
	cfg.AdaptivePlacement = false
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	run(t, e, 2)

	locs := e.CheckpointLocations()
	if len(locs) != 10 {
		t.Fatalf("locations = %d", len(locs))
	}
	plan := checkpoint.BuildPlan(locs)
	if len(plan.PreStaged) == 0 {
		t.Fatal("no subgroups pre-staged despite a persistent tier")
	}
	if len(plan.ToFlush) == 0 {
		t.Fatal("nothing to flush — host/NVMe subgroups missing")
	}
	if s := plan.Savings(); s <= 0 || s >= 1 {
		t.Errorf("savings = %v, want in (0,1)", s)
	}

	ckptTier := storage.NewMemTier("ckpt")
	w := checkpoint.NewWriter(ckptTier, "run1")
	defer w.Close()
	m, err := e.Checkpoint(context.Background(), 2, w)
	if err != nil {
		t.Fatal(err)
	}
	if m.Savings() != plan.Savings() {
		t.Errorf("savings mismatch: %v vs %v", m.Savings(), plan.Savings())
	}
	// The checkpoint tier holds the flushed objects plus the manifest.
	keys, _ := ckptTier.Keys(context.Background())
	if len(keys) != len(plan.ToFlush)+1 {
		t.Errorf("checkpoint tier holds %d objects, want %d + manifest", len(keys), len(plan.ToFlush))
	}
	// Pre-staged subgroups were snapshotted under step-tagged keys on
	// their own tier, and every referenced object checks out.
	r := checkpoint.NewReader(ckptTier, "run1")
	if err := r.Verify(context.Background(), m, func(name string) storage.Tier {
		for _, ts := range tiers {
			if ts.Tier.Name() == name {
				return ts.Tier
			}
		}
		return nil
	}); err != nil {
		t.Errorf("manifest verify: %v", err)
	}

	// The checkpoint's own tier reads show up as checkpoint-class traffic
	// in the next iteration's per-class breakdown, beside fetch and flush:
	// one read per flushed subgroup that lived on a tier.
	offloaded := 0
	for _, l := range plan.ToFlush {
		if l.Key != "" {
			offloaded++
		}
	}
	it, err := e.TrainIteration(2)
	if err != nil {
		t.Fatal(err)
	}
	if c := it.ClassIO["checkpoint"]; offloaded == 0 || int(c.Ops) != offloaded || c.Bytes <= 0 || c.WireBytes != c.Bytes {
		t.Errorf("checkpoint class after a checkpoint: %+v, want %d ops", c, offloaded)
	}
}

func TestFetchSubgroupBytesMatchesState(t *testing.T) {
	cfg := BaselineConfig(0, 200, 50, memTiers(1000))
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	run(t, e, 2)
	// Both host-resident and offloaded subgroups are fetchable and carry
	// the current parameters.
	want := make([]float32, 200)
	if err := e.GatherParams(want); err != nil {
		t.Fatal(err)
	}
	for sgID := 0; sgID < 4; sgID++ {
		buf, err := e.FetchSubgroupBytes(context.Background(), sgID)
		if err != nil {
			t.Fatalf("subgroup %d: %v", sgID, err)
		}
		if len(buf) == 0 {
			t.Fatalf("subgroup %d empty", sgID)
		}
	}
	if _, err := e.FetchSubgroupBytes(context.Background(), 99); err == nil {
		t.Error("out-of-range subgroup accepted")
	}
}
