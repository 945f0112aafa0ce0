package engine

import (
	"context"
	"testing"

	"github.com/datastates/mlpoffload/internal/checkpoint"
	"github.com/datastates/mlpoffload/internal/storage"
)

// throttledPair builds a fast "nvme" and a slow "pfs" throttled tier and
// returns the specs plus the handles for mid-run bandwidth shifts. Bursts
// are kept below one subgroup object so observed bandwidth tracks the
// configured rate (a burst-dominated transfer completes at memory speed
// and would feed the estimator garbage).
func throttledPair(nvmeBW, pfsBW float64) ([]TierSpec, *storage.Throttled, *storage.Throttled) {
	const burst = 1024
	nvme := storage.NewThrottled(storage.NewMemTier("nvme"), storage.ThrottleConfig{
		ReadBW: nvmeBW, WriteBW: nvmeBW, ReadBurst: burst, WriteBurst: burst,
	})
	pfs := storage.NewThrottled(storage.NewMemTier("pfs"), storage.ThrottleConfig{
		ReadBW: pfsBW, WriteBW: pfsBW, ReadBurst: burst, WriteBurst: burst,
	})
	specs := []TierSpec{
		{Tier: nvme, ReadBW: nvmeBW, WriteBW: nvmeBW},
		{Tier: pfs, ReadBW: pfsBW, WriteBW: pfsBW, Persistent: true},
	}
	return specs, nvme, pfs
}

// placementConsistent verifies the physical invariant behind loc[]: every
// offloaded subgroup's state object exists on exactly the tier loc
// records and on no other — eviction and migration both delete the stale
// source copy. Host-resident subgroups are skipped: their tier copy goes
// stale at the update and is reclaimed only when they are evicted.
func placementConsistent(t *testing.T, e *Engine) {
	t.Helper()
	ctx := context.Background()
	onTier := make([]map[string]bool, len(e.cfg.Tiers))
	for i, ts := range e.cfg.Tiers {
		keys, err := ts.Tier.Keys(ctx)
		if err != nil {
			t.Fatal(err)
		}
		onTier[i] = make(map[string]bool, len(keys))
		for _, k := range keys {
			onTier[i][k] = true
		}
	}
	e.cacheMu.Lock()
	loc := append([]int(nil), e.loc...)
	e.cacheMu.Unlock()
	for sg, l := range loc {
		if l == locHost {
			continue
		}
		key := e.key(sg)
		for ti := range onTier {
			if has := onTier[ti][key]; has != (ti == l) {
				t.Errorf("subgroup %d: loc says %s, object on %s = %v", sg, e.names[l], e.names[ti], has)
			}
		}
	}
}

// TestMigrationConvergesAfterBandwidthShift is the acceptance test: with
// AdaptivePlacement on and a mid-run tier slowdown, every subgroup's
// backing object must reach its planned tier within a bounded number of
// iterations — through live migration, not by waiting for eviction
// traffic to happen to touch it — and the parameters must stay
// bit-identical to a run that never migrated anything.
func TestMigrationConvergesAfterBandwidthShift(t *testing.T) {
	const (
		params = 2400
		sub    = 200
		warm   = 3
		bound  = 10 // convergence bound (iterations after the shift)
	)
	mkCfg := func(tiers []TierSpec) Config {
		cfg := MLPConfig(0, params, sub, tiers, nil)
		cfg.Grad = QuadraticGradFn(2)
		cfg.Hyper.LR = 0.05
		return cfg
	}

	// Reference: same numerics on unthrottled tiers, no adaptive
	// placement, no migration. Placement must never affect values.
	refCfg := mkCfg(memTiers(1000, 600))
	refCfg.AdaptivePlacement = false
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	tiers, _, pfs := throttledPair(2e6, 1e6)
	e, err := New(mkCfg(tiers))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	trainRange(t, ref, 0, warm)
	trainRange(t, e, 0, warm)

	// The PFS collapses to 1/20th of its nominal bandwidth: the plan must
	// shift toward NVMe and the migrator must move the cold subgroups.
	pfs.SetRates(5e4, 5e4)

	// Converged means: at a post-shift iteration boundary, with migrations
	// quiesced, zero subgroups sit on a tier the plan does not assign. The
	// plan itself keeps replanning while the EWMA digests the shift, so
	// the assertion is on the state at the end of the bounded window.
	for iter := warm; iter < warm+bound; iter++ {
		trainRange(t, ref, iter, iter+1)
		trainRange(t, e, iter, iter+1)
	}
	e.Drain() // quiesce migrations before inspecting placement
	if n := e.MisplacedSubgroups(); n != 0 {
		t.Fatalf("placement did not converge within %d iterations after the shift (misplaced=%d)", bound, n)
	}
	st := e.MigrationStats()
	if st.Moves == 0 {
		t.Error("no live migrations ran; convergence came from eviction traffic only")
	}
	if st.Err != nil {
		t.Errorf("migration error: %v", st.Err)
	}
	placementConsistent(t, e)

	// The plan actually moved away from the collapsed tier.
	plan := e.Plan()
	if plan.Counts[1] >= plan.Counts[0] {
		t.Errorf("plan did not shift toward nvme: %s", plan.Ratio())
	}

	// Bit-identical parameters despite replanning and migration churn.
	want := gather(t, ref)
	got := gather(t, e)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("param %d diverged: %v != %v", i, got[i], want[i])
		}
	}
}

// TestCheckpointRestoreMidMigration takes a checkpoint immediately after
// a bandwidth shift queued a burst of migrations — the drain inside
// Checkpoint completes them, the manifest records the resulting
// placement, and a fresh engine restored from it must continue training
// bit-identically to an uninterrupted run.
func TestCheckpointRestoreMidMigration(t *testing.T) {
	const (
		params = 1000
		sub    = 100
		k      = 4 // checkpoint step
		n      = 8
	)
	mk := func(tiers []TierSpec) Config {
		cfg := MLPConfig(0, params, sub, tiers, nil)
		cfg.Grad = QuadraticGradFn(3)
		cfg.Hyper.LR = 0.02
		return cfg
	}

	// Uninterrupted reference with identical numerics and tier shape
	// (including the same bandwidth shift, so adaptive replanning sees the
	// same world — values must not depend on it, but keep it faithful).
	refTiers, _, refPFS := throttledPair(2e6, 1e6)
	ref, err := New(mk(refTiers))
	if err != nil {
		t.Fatal(err)
	}
	trainRange(t, ref, 0, k-1)
	refPFS.SetRates(2e5, 2e5)
	trainRange(t, ref, k-1, n)
	want := gather(t, ref)
	ref.Close()

	// Interrupted run: shift bandwidth right before iteration k so the
	// replan at the end of iteration k queues migrations, then checkpoint
	// while that queue is still draining.
	tiers, _, pfs := throttledPair(2e6, 1e6)
	ckptTier := storage.NewMemTier("ckpt") // survives the crash
	e1, err := New(mk(tiers))
	if err != nil {
		t.Fatal(err)
	}
	trainRange(t, e1, 0, k-1)
	pfs.SetRates(2e5, 2e5)
	trainRange(t, e1, k-1, k)
	w := checkpoint.NewWriter(ckptTier, "rank000")
	defer w.Close()
	m, err := e1.Checkpoint(context.Background(), k, w)
	if err != nil {
		t.Fatal(err)
	}
	if m.Step != k {
		t.Fatalf("manifest step %d", m.Step)
	}
	// The persistent tier's pre-staged snapshots plus checkpoint objects
	// must all verify against the manifest.
	r := checkpoint.NewReader(ckptTier, "rank000")
	resolve := func(name string) storage.Tier {
		for _, ts := range tiers {
			if ts.Tier.Name() == name {
				return ts.Tier
			}
		}
		return nil
	}
	if err := r.Verify(context.Background(), m, resolve); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	// Crash: rebuild on the same (persistent) tiers and restore. The
	// restored engine replans and re-migrates on its own.
	e2, err := New(mk(tiers))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	restoreLatest(t, e2, r)
	trainRange(t, e2, k, n)

	got := gather(t, e2)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("param %d diverged after mid-migration resume: %v != %v", i, got[i], want[i])
		}
	}
	placementConsistent(t, e2)
}

// TestMigrationChurnRaces drives the migrator against concurrent fetches,
// eviction flushes and checkpoints while the plan flip-flops every
// iteration (run under -race in CI). Values must match a churn-free
// reference bit for bit.
func TestMigrationChurnRaces(t *testing.T) {
	const (
		params = 1500
		sub    = 100
		iters  = 10
	)
	mk := func(tiers []TierSpec) Config {
		cfg := MLPConfig(0, params, sub, tiers, nil)
		cfg.Grad = QuadraticGradFn(1)
		cfg.Hyper.LR = 0.03
		cfg.UpdateWorkers = 2
		return cfg
	}

	refCfg := mk(memTiers(1000, 600))
	refCfg.AdaptivePlacement = false
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	trainRange(t, ref, 0, iters)
	want := gather(t, ref)

	tiers, nvme, pfs := throttledPair(2e6, 1.5e6)
	e, err := New(mk(tiers))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ckptTier := storage.NewMemTier("ckpt")
	w := checkpoint.NewWriter(ckptTier, "rank000")
	defer w.Close()
	for i := 0; i < iters; i++ {
		// Flip which tier looks fast so every replan displaces subgroups
		// and migrations overlap the next iteration's fetch/flush traffic.
		if i%2 == 0 {
			nvme.SetRates(2e5, 2e5)
			pfs.SetRates(2e6, 2e6)
		} else {
			nvme.SetRates(2e6, 2e6)
			pfs.SetRates(2e5, 2e5)
		}
		trainRange(t, e, i, i+1)
		if i == iters/2 {
			// Checkpoint concurrent with the migration backlog.
			if _, err := e.Checkpoint(context.Background(), i+1, w); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := e.MigrationStats(); st.Err != nil {
		t.Errorf("migration error under churn: %v", st.Err)
	}
	got := gather(t, e)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("param %d diverged under churn: %v != %v", i, got[i], want[i])
		}
	}
	e.Drain()
	placementConsistent(t, e)
}
