package engine

import (
	"errors"
	"testing"

	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/tierlock"
)

// gatherAfter trains an engine for iters iterations and returns the final
// FP32 master parameters.
func gatherAfter(t *testing.T, cfg Config, iters int) []float32 {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < iters; i++ {
		if _, err := e.TrainIteration(i); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	out := make([]float32, cfg.Params)
	if err := e.GatherParams(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestUpdateWorkersIdenticalParams: the worker pool is a performance
// feature only — any worker count must produce bit-identical parameters,
// on both the delayed-conversion and the baseline gradient paths.
func TestUpdateWorkersIdenticalParams(t *testing.T) {
	for _, mode := range []string{"mlp", "baseline"} {
		t.Run(mode, func(t *testing.T) {
			mk := func(workers int) []float32 {
				var cfg Config
				if mode == "mlp" {
					cfg = MLPConfig(0, 1100, 100, memTiers(500, 300), tierlock.NewManager(true))
				} else {
					cfg = BaselineConfig(0, 1100, 100, memTiers(500))
				}
				cfg.AdaptivePlacement = false // same placement for every run
				cfg.UpdateWorkers = workers
				return gatherAfter(t, cfg, 5)
			}
			one := mk(1)
			for _, w := range []int{2, 4} {
				got := mk(w)
				for i := range one {
					if one[i] != got[i] {
						t.Fatalf("param %d differs at UpdateWorkers=%d: %v vs %v",
							i, w, one[i], got[i])
					}
				}
			}
		})
	}
}

// TestUpdateWorkersClipAndScaling: gradient clipping and dynamic loss
// scaling are phase-level decisions taken before the pipeline fans out, so
// they too must be identical at any worker count.
func TestUpdateWorkersClipAndScaling(t *testing.T) {
	mk := func(workers int) ([]float32, int64) {
		cfg := BaselineConfig(0, 600, 64, memTiers(800))
		cfg.SkipGradFlush = true
		cfg.ClipNorm = 0.01 // low enough that clipping engages
		cfg.LossScaling = true
		cfg.UpdateWorkers = workers
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for i := 0; i < 6; i++ {
			if _, err := e.TrainIteration(i); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
		}
		out := make([]float32, cfg.Params)
		if err := e.GatherParams(out); err != nil {
			t.Fatal(err)
		}
		return out, e.SkippedSteps()
	}
	one, skipped1 := mk(1)
	four, skipped4 := mk(4)
	if skipped1 != skipped4 {
		t.Fatalf("skipped steps differ: %d vs %d", skipped1, skipped4)
	}
	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("param %d differs under clip+scaling: %v vs %v", i, one[i], four[i])
		}
	}
}

// TestUpdateWorkersTierErrorCancels: a mid-phase tier failure must surface
// from TrainIteration, cancel the in-flight workers without deadlock or
// leaked buffers, and leave the engine closable.
func TestUpdateWorkersTierErrorCancels(t *testing.T) {
	boom := errors.New("tier failed mid-phase")
	tier := &storage.FaultTier{
		Tier:      storage.NewMemTier("flaky"),
		FailEvery: 7,
		Err:       boom,
		FailReads: true,
	}
	cfg := BaselineConfig(0, 1200, 60, []TierSpec{{Tier: tier, ReadBW: 100, WriteBW: 100}})
	cfg.UpdateWorkers = 4
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var sawErr bool
	for i := 0; i < 6; i++ {
		if _, err := e.TrainIteration(i); err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("unexpected error type: %v", err)
			}
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("injected read faults never surfaced through the pipeline")
	}
	// The engine must still drain and close cleanly after a failed phase;
	// the deferred Close above would deadlock on leaked buffers or hung
	// workers if cancellation were not clean.
}

// TestUpdateWorkersWriteErrorCancels: eviction-flush failures propagate
// too (the committer-side error path).
func TestUpdateWorkersWriteErrorCancels(t *testing.T) {
	boom := errors.New("write burned out")
	tier := &storage.FaultTier{
		Tier:       storage.NewMemTier("flaky"),
		FailEvery:  9,
		Err:        boom,
		FailWrites: true,
	}
	cfg := BaselineConfig(0, 1200, 60, []TierSpec{{Tier: tier, ReadBW: 100, WriteBW: 100}})
	cfg.SkipGradFlush = true
	cfg.UpdateWorkers = 4
	e, err := New(cfg)
	if err != nil {
		// Initial offload may already trip the fault — acceptable.
		if !errors.Is(err, boom) {
			t.Fatalf("unexpected error type: %v", err)
		}
		return
	}
	defer e.Close()
	// Fault didn't fire during init; it must surface during training.
	var sawErr bool
	for i := 0; i < 8; i++ {
		if _, err := e.TrainIteration(i); err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("unexpected error type: %v", err)
			}
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("injected write faults never surfaced through the pipeline")
	}
}

// TestUpdateWorkersConvergence: the full numeric integration test through
// the parallel pipeline — every parameter converges to the target through
// serialization, offload, refetch and FP16 transfers.
func TestUpdateWorkersConvergence(t *testing.T) {
	cfg := MLPConfig(0, 500, 64, memTiers(1000, 600), tierlock.NewManager(true))
	cfg.Hyper.LR = 0.05
	cfg.Grad = QuadraticGradFn(3)
	cfg.UpdateWorkers = 4
	params := gatherAfter(t, cfg, 300)
	for i, p := range params {
		if p < 2.9 || p > 3.1 {
			t.Fatalf("param %d = %v, want ~3 (parallel pipeline corrupts state?)", i, p)
		}
	}
}

// TestUpdateWorkersCacheAccounting: every subgroup is processed exactly
// once per phase at any worker count.
func TestUpdateWorkersCacheAccounting(t *testing.T) {
	cfg := MLPConfig(0, 1000, 100, memTiers(500, 300), nil)
	cfg.UpdateWorkers = 3
	cfg.HostCacheSlots = 4
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 4; i++ {
		it, err := e.TrainIteration(i)
		if err != nil {
			t.Fatal(err)
		}
		if got := it.CacheHits + it.CacheMisses; got != e.Subgroups() {
			t.Fatalf("iteration %d processed %d subgroups, want %d", i, got, e.Subgroups())
		}
		if it.ParamsUpdated != 1000 {
			t.Fatalf("iteration %d updated %d params, want 1000", i, it.ParamsUpdated)
		}
	}
}
