package engine

//mlpvet:allowfile clockcheck time.After here is a liveness timeout guard, not measured time

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"github.com/datastates/mlpoffload/internal/checkpoint"
	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/subgroup"
	"github.com/datastates/mlpoffload/internal/tiercodec"
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

// TestCheckpointObjectsMatchState: the objects a checkpoint writes — a
// host-resident subgroup's taken straight from its fetched buffer, an
// offloaded one's staged through an idle fetch buffer — read back, with
// the codec on and off, to the engine's current parameters.
func TestCheckpointObjectsMatchState(t *testing.T) {
	ctx := context.Background()
	for _, codec := range []bool{false, true} {
		t.Run(fmt.Sprintf("codec=%v", codec), func(t *testing.T) {
			cfg := BaselineConfig(0, 200, 50, memTiers(1000))
			var ckpt storage.Tier = storage.NewMemTier("ckpt")
			if codec {
				cfg.Tiers = withCodec(cfg.Tiers, codecSpec)
				ct, err := tiercodec.New(ckpt, codecSpec)
				if err != nil {
					t.Fatal(err)
				}
				ckpt = ct
			}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			run(t, e, 2)
			want := gather(t, e)
			w := checkpoint.NewWriter(ckpt, "run")
			m, err := e.Checkpoint(ctx, 2, w)
			w.Close()
			if err != nil {
				t.Fatal(err)
			}
			var host, offloaded int
			for _, ent := range m.Entries {
				tier := ckpt
				if ent.Tier != "" {
					tier = e.TierHandle(ent.Tier)
				}
				obj, err := storage.ReadWholeObject(ctx, tier, ent.Key)
				if err != nil {
					t.Fatalf("subgroup %d: %v", ent.SubgroupID, err)
				}
				sg := e.shard.Subgroups[ent.SubgroupID]
				got := make([]float32, sg.Len())
				if err := sg.ReadParams(got, obj); err != nil {
					t.Fatalf("subgroup %d: %v", ent.SubgroupID, err)
				}
				off := e.sgOffset[ent.SubgroupID]
				for i, v := range got {
					if v != want[off+int64(i)] {
						t.Fatalf("subgroup %d (origin %s) param %d: checkpoint has %v, engine %v", ent.SubgroupID, ent.Origin, i, v, want[off+int64(i)])
					}
				}
				if ent.Origin == "host" {
					host++
				} else {
					offloaded++
				}
			}
			if host == 0 || offloaded == 0 {
				t.Fatalf("checkpoint covered %d host-resident and %d offloaded subgroups, want both", host, offloaded)
			}
		})
	}
}

// TestCheckpointAllocatesUnderOneObject: checkpoint staging rides the
// engine's idle fetch buffers, so a whole checkpoint — offloaded
// subgroups read, every object written — allocates less than one
// subgroup object. Without a codec nothing on that path needs a pooled
// buffer, so the bound holds with internal/bufpool emptied; with the
// codec on every tier its per-op buffers and one-plane scratch come from
// bufpool, warmed by a first checkpoint.
func TestCheckpointAllocatesUnderOneObject(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under -race")
	}
	const (
		params = 1_200_000
		sub    = 100_000
	)
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		codec     tiercodec.Spec
		emptyPool bool
	}{
		{"plain", tiercodec.Spec{}, true},
		{"codec", codecSpec, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Collection off from the start: a GC empties the sync.Pool
			// behind internal/bufpool, which only the plain case wants,
			// and only right before the measured checkpoint.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			tiers := withCodec(fileTiers(t, 2e9, 1e9), tc.codec)
			tiers[1].Persistent = true
			cfg := MLPConfig(0, params, sub, tiers, nil)
			cfg.AdaptivePlacement = false
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			var ckpt storage.Tier
			if ckpt, err = storage.NewFileTier("ckpt", t.TempDir()); err != nil {
				t.Fatal(err)
			}
			if tc.codec.Enabled() {
				if ckpt, err = tiercodec.New(ckpt, tc.codec); err != nil {
					t.Fatal(err)
				}
			}
			w := checkpoint.NewWriter(ckpt, "run")
			defer w.Close()

			run(t, e, 4)
			if _, err := e.Checkpoint(ctx, 4, w); err != nil { // warm-up
				t.Fatal(err)
			}
			trainRange(t, e, 4, 5)
			if tc.emptyPool {
				runtime.GC() // two cycles empty a sync.Pool
				runtime.GC()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := e.Checkpoint(ctx, 5, w)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			staged := 0
			for _, ent := range m.Entries {
				if !ent.PreStaged {
					staged++
				}
			}
			if staged == 0 {
				t.Fatal("checkpoint staged nothing; the test exercised no staging")
			}
			object := uint64(subgroup.StateBytes(sub))
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("checkpoint of %d staged subgroups allocated %d B (one object is %d B)", staged, got, object)
			if got >= object {
				t.Errorf("checkpoint allocated %d B, limit is under one %d B subgroup object", got, object)
			}
		})
	}
}

// TestCheckpointWholeShardResident: with a host cache that holds every
// subgroup, the resident states take the most fetch buffers they ever
// can and leave the fewest idle for checkpoint staging. The checkpoint
// still completes, leaks no fetch buffer, and restores bit-identically.
func TestCheckpointWholeShardResident(t *testing.T) {
	const (
		params = 600
		sub    = 100
		k      = 3
		n      = 6
	)
	mk := func(pfs storage.Tier) Config {
		tiers := []TierSpec{
			{Tier: storage.NewMemTier("nvme"), ReadBW: 690, WriteBW: 530},
			{Tier: pfs, ReadBW: 360, WriteBW: 360, Persistent: true},
		}
		cfg := MLPConfig(0, params, sub, withCodec(tiers, codecSpec), nil)
		cfg.AdaptivePlacement = false
		cfg.HostCacheSlots = params / sub
		cfg.Grad = QuadraticGradFn(3)
		cfg.Hyper.LR = 0.02
		return cfg
	}
	ref, err := New(mk(storage.NewMemTier("pfs")))
	if err != nil {
		t.Fatal(err)
	}
	trainRange(t, ref, 0, n)
	want := gather(t, ref)
	ref.Close()

	pfs := storage.NewMemTier("pfs")
	e1, err := New(mk(pfs))
	if err != nil {
		t.Fatal(err)
	}
	trainRange(t, e1, 0, k)
	held := 0
	for _, sg := range e1.shard.Subgroups {
		if sg.Backing != nil {
			held++
		}
	}
	if held != e1.Subgroups() {
		t.Fatalf("%d of %d subgroups hold a fetch buffer; the test needs the whole shard resident", held, e1.Subgroups())
	}
	free := e1.fetchPool.Free()
	ckptTier := storage.NewMemTier("ckpt")
	w := checkpoint.NewWriter(ckptTier, "run")
	done := make(chan error, 1)
	go func() {
		_, err := e1.Checkpoint(context.Background(), k, w)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("checkpoint stalled waiting for a fetch buffer")
	}
	w.Close()
	if got := e1.fetchPool.Free(); got != free {
		t.Fatalf("fetch pool has %d free buffers after the checkpoint, %d before", got, free)
	}
	e1.Close()

	e2, err := New(mk(pfs))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	restoreLatest(t, e2, checkpoint.NewReader(ckptTier, "run"))
	trainRange(t, e2, k, n)
	got := gather(t, e2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("param %d differs after resume: %v vs uninterrupted %v", i, got[i], want[i])
		}
	}
}
