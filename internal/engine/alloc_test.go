package engine

import (
	"runtime"
	"testing"

	"github.com/datastates/mlpoffload/internal/fp16"
	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/tierlock"
)

// steadyStateAllocs trains eng through warmup iterations and then
// measures windows of full iterations, returning the smallest window's
// per-iteration allocation count and volume. The minimum is what every
// iteration pays: a one-time cost — a lazily materialized pool buffer,
// or a size-classed buffer re-made after a GC emptied its pool — lands
// in at most one window, while a per-iteration cost shows in all of them.
func steadyStateAllocs(t *testing.T, eng *Engine) (allocs, bytes float64) {
	t.Helper()
	const warmup, windows, perWindow = 4, 3, 4
	iter := 0
	for ; iter < warmup; iter++ {
		if _, err := eng.TrainIteration(iter); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < windows; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for end := iter + perWindow; iter < end; iter++ {
			if _, err := eng.TrainIteration(iter); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		a := float64(after.Mallocs-before.Mallocs) / perWindow
		b := float64(after.TotalAlloc-before.TotalAlloc) / perWindow
		if w == 0 || a < allocs {
			allocs = a
		}
		if w == 0 || b < bytes {
			bytes = b
		}
	}
	return allocs, bytes
}

// TestUpdatePhaseSteadyStateAllocs is the CI gate for the allocation-free
// steady state: after warmup, a full training iteration must stay under
// fixed per-iteration allocation ceilings, set from the measurement and
// only ever tightened. Two shapes:
//
//   - mem: unthrottled in-memory tiers at 1M params in 10 subgroups (the
//     BenchmarkUpdatePhaseUnthrottled configuration). Its per-byte
//     ceiling is what matters: reintroducing one serialize pass or one
//     staging copy costs megabytes per iteration (the pre-zero-copy
//     engine allocated ~20 MB/iteration here).
//   - file: bench/e2e's mlp-smallobj shape — 96 subgroups on two
//     FileTiers under node locks, batch gradients — with adaptive
//     placement on and off. Its per-op ceiling is what matters: every
//     fetch, flush and delete crosses aio, tierlock and FileTier.
//
// Measured on 2 vCPU: mem ~51 allocs and ~8 KB per iteration; file
// ~330–365 allocs and ~71–78 KB (~3,700 and ~280 KB before FileTier,
// tierlock, aio and the pipeline stopped allocating per op). What an
// iteration still allocates, by source:
//   - aio.Op, one per submitted fetch batch, flush and delete, with its
//     done channel (callers read an op after Wait, so ops are not reused);
//   - the same-key chain slices (Op.preds/next) of an op parked behind an
//     earlier op on its key;
//   - per update phase: the pipeline's channels, goroutines and cancel
//     context, the processing order, and the replan;
//   - per iteration: the tier-bytes and per-class I/O maps of
//     metrics.Iteration, and the Series entry it is appended to.
func TestUpdatePhaseSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under -race")
	}
	if testing.Short() {
		t.Skip("steady-state measurement needs full iterations")
	}
	t.Run("mem", func(t *testing.T) {
		tiers := []TierSpec{
			{Tier: storage.NewMemTier("nvme"), ReadBW: 2e9, WriteBW: 2e9},
			{Tier: storage.NewMemTier("pfs"), ReadBW: 1e9, WriteBW: 1e9},
		}
		cfg := MLPConfig(0, 1_000_000, 100_000, tiers, nil)
		cfg.AdaptivePlacement = false
		cfg.UpdateWorkers = 2
		checkSteadyState(t, cfg, 150, 64<<10)
	})
	for _, adaptive := range []bool{true, false} {
		name := "file/fixed"
		if adaptive {
			name = "file/adaptive"
		}
		t.Run(name, func(t *testing.T) {
			const subgroups, sub = 96, 4096
			cfg := MLPConfig(0, subgroups*sub, sub, fileTiers(t, 2e9, 1e9), tierlock.NewManager(true))
			cfg.AdaptivePlacement = adaptive
			cfg.UpdateWorkers = 2
			cfg.BatchGrad = func(iter int, _ []fp16.Bits, out []float32) error {
				for i := range out {
					out[i] = defaultGrad(iter, int64(i), 0)
				}
				return nil
			}
			checkSteadyState(t, cfg, 700, 160<<10)
		})
	}
}

// checkSteadyState builds an engine from cfg and holds its steady-state
// iteration under the given ceilings.
func checkSteadyState(t *testing.T, cfg Config, maxAllocs, maxBytes float64) {
	t.Helper()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	allocs, bytes := steadyStateAllocs(t, eng)
	t.Logf("steady state: %.0f allocs/iter, %.0f B/iter", allocs, bytes)
	if allocs > maxAllocs {
		t.Errorf("steady-state allocations regressed: %.0f allocs/iter > ceiling %.0f", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("steady-state allocation volume regressed: %.0f B/iter > ceiling %.0f", bytes, maxBytes)
	}
}
