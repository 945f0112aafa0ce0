package engine

import (
	"context"
	"testing"

	"github.com/datastates/mlpoffload/internal/checkpoint"
	"github.com/datastates/mlpoffload/internal/placement"
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
// records and on no other — an eviction to a new tier deletes the stale
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

// misplacedOnlyByLastReplan checks the lazy-convergence invariant at an
// iteration boundary: every offloaded subgroup off the current plan is
// one whose tier the replan ending the iteration changed, and it still
// sits on the tier the plan before that replan named — the update phase
// evicted it there, and the next phase's eviction moves it.
func misplacedOnlyByLastReplan(t *testing.T, e *Engine, iter int, before placement.Plan) {
	t.Helper()
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	for sg, l := range e.loc {
		if l == locHost || l == e.plan.TierFor(sg) {
			continue
		}
		if before.TierFor(sg) == e.plan.TierFor(sg) {
			t.Errorf("iteration %d: subgroup %d on %s, planned %s, but the last replan did not move it",
				iter, sg, e.names[l], e.names[e.plan.TierFor(sg)])
		} else if l != before.TierFor(sg) {
			t.Errorf("iteration %d: subgroup %d on %s, neither its old tier %s nor its new %s",
				iter, sg, e.names[l], e.names[before.TierFor(sg)], e.names[e.plan.TierFor(sg)])
		}
	}
}

// TestLazyConvergenceAfterBandwidthShift: with AdaptivePlacement on and a
// mid-run tier slowdown, the plan shifts toward the fast tier and the
// placement follows it through the eviction writes alone — at every
// iteration boundary a subgroup is off-plan only if the replan that just
// ran moved it — while the parameters stay bit-identical to a run that
// never replanned.
func TestLazyConvergenceAfterBandwidthShift(t *testing.T) {
	const (
		params = 2400
		sub    = 200
		warm   = 3
		after  = 10 // iterations after the shift
	)
	mkCfg := func(tiers []TierSpec) Config {
		cfg := MLPConfig(0, params, sub, tiers, nil)
		cfg.Grad = QuadraticGradFn(2)
		cfg.Hyper.LR = 0.05
		return cfg
	}

	// Reference: same numerics on unthrottled tiers, no adaptive
	// placement. Placement must never affect values.
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

	step := func(iter int) {
		before := e.Plan()
		trainRange(t, ref, iter, iter+1)
		trainRange(t, e, iter, iter+1)
		misplacedOnlyByLastReplan(t, e, iter, before)
	}
	for iter := 0; iter < warm; iter++ {
		step(iter)
	}
	// The PFS collapses to 1/20th of its nominal bandwidth: the plan must
	// shift toward NVMe and evictions must carry the subgroups there.
	pfs.SetRates(5e4, 5e4)
	moves0 := e.MigrationStats().Moves
	for iter := warm; iter < warm+after; iter++ {
		step(iter)
	}
	if st := e.MigrationStats(); st.Moves == moves0 {
		t.Error("no eviction moved a subgroup after the shift")
	}
	e.Drain()
	placementConsistent(t, e)

	// The plan actually moved away from the collapsed tier.
	plan := e.Plan()
	if plan.Counts[1] >= plan.Counts[0] {
		t.Errorf("plan did not shift toward nvme: %s", plan.Ratio())
	}

	// Bit-identical parameters despite replanning.
	want := gather(t, ref)
	got := gather(t, e)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("param %d diverged: %v != %v", i, got[i], want[i])
		}
	}
}

// trainUntilMisplaced trains e one iteration at a time from iteration
// from until a boundary finds a subgroup off-plan — a replan moved it and
// no eviction has yet — and returns the iterations trained. Which
// subgroups a replan moves, and whether they are host-resident at that
// boundary, follows wall-clock bandwidth estimates, so the first such
// boundary is searched for, not assumed.
func trainUntilMisplaced(t *testing.T, e *Engine, from, limit int) int {
	t.Helper()
	for it := from; it < limit; it++ {
		trainRange(t, e, it, it+1)
		if e.MisplacedSubgroups() > 0 {
			return it + 1
		}
	}
	t.Fatalf("no subgroup off-plan at any boundary through iteration %d; the scenario exercises nothing", limit)
	return 0
}

// TestCheckpointRestoreMidConvergence takes a checkpoint right after a
// bandwidth shift's replan displaced subgroups, while they still sit on
// their old tiers — the manifest records that placement, and a fresh
// engine restored from it must continue training bit-identically to an
// uninterrupted run.
func TestCheckpointRestoreMidConvergence(t *testing.T) {
	const (
		params = 2000
		sub    = 100
		shift  = 3 // iterations before the PFS slows down
		n      = 10
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
	trainRange(t, ref, 0, shift)
	refPFS.SetRates(1e5, 1e5)
	trainRange(t, ref, shift, n)
	want := gather(t, ref)
	ref.Close()

	// Interrupted run: slow the PFS so a replan displaces subgroups, then
	// checkpoint at the first boundary where one has not moved yet.
	tiers, _, pfs := throttledPair(2e6, 1e6)
	ckptTier := storage.NewMemTier("ckpt") // survives the crash
	e1, err := New(mk(tiers))
	if err != nil {
		t.Fatal(err)
	}
	trainRange(t, e1, 0, shift)
	pfs.SetRates(1e5, 1e5)
	k := trainUntilMisplaced(t, e1, shift, n-1)
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
	// restored engine places every subgroup under its own plan.
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
			t.Fatalf("param %d diverged after mid-convergence resume: %v != %v", i, got[i], want[i])
		}
	}
	placementConsistent(t, e2)
}

// TestReplanChurnRaces drives replans against concurrent fetches,
// eviction moves and checkpoints while the plan flip-flops every
// iteration (run under -race in CI). Values must match a churn-free
// reference bit for bit.
func TestReplanChurnRaces(t *testing.T) {
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
		// and the next iteration's evictions move them.
		if i%2 == 0 {
			nvme.SetRates(2e5, 2e5)
			pfs.SetRates(2e6, 2e6)
		} else {
			nvme.SetRates(2e6, 2e6)
			pfs.SetRates(2e5, 2e5)
		}
		trainRange(t, e, i, i+1)
		if i == iters/2 {
			// Checkpoint with displaced subgroups not yet moved.
			if _, err := e.Checkpoint(context.Background(), i+1, w); err != nil {
				t.Fatal(err)
			}
		}
	}
	if e.MigrationStats().Moves == 0 {
		t.Error("no eviction moved a subgroup under churn")
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
