package engine

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/tierlock"
)

// fileTiers returns n directory-backed tiers under t.TempDir — the
// coalescing and vectored-read paths exercised over a real filesystem
// rather than the in-memory tier.
func fileTiers(t *testing.T, bws ...float64) []TierSpec {
	t.Helper()
	out := make([]TierSpec, len(bws))
	for i, bw := range bws {
		ft, err := storage.NewFileTier("file"+string(rune('a'+i)), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = TierSpec{Tier: ft, ReadBW: bw, WriteBW: bw}
	}
	return out
}

// TestCoalescedFetchIdenticalParams: read-ahead coalescing is a transport
// optimization only — batching adjacent fetches into one vectored op must
// not change which bytes arrive or in what commit order they are
// consumed, so parameters are bit-identical at any CoalesceFetches.
func TestCoalescedFetchIdenticalParams(t *testing.T) {
	mk := func(coalesce int, tiers []TierSpec) []float32 {
		cfg := MLPConfig(0, 2500, 100, tiers, tierlock.NewManager(true))
		cfg.AdaptivePlacement = false // same placement for every run
		cfg.HostCacheSlots = 3        // most subgroups miss every phase
		cfg.UpdateWorkers = 2
		cfg.KernelWorkers = 1
		cfg.CoalesceFetches = coalesce
		return gatherAfter(t, cfg, 5)
	}
	t.Run("mem", func(t *testing.T) {
		one := mk(1, memTiers(500, 300))
		for _, c := range []int{2, 4, 6} {
			got := mk(c, memTiers(500, 300))
			for i := range one {
				if one[i] != got[i] {
					t.Fatalf("param %d differs at CoalesceFetches=%d: %v vs %v",
						i, c, one[i], got[i])
				}
			}
		}
	})
	t.Run("file", func(t *testing.T) {
		one := mk(1, fileTiers(t, 500, 300))
		got := mk(4, fileTiers(t, 500, 300))
		for i := range one {
			if one[i] != got[i] {
				t.Fatalf("param %d differs with coalesced file reads: %v vs %v",
					i, one[i], got[i])
			}
		}
	})
}

// TestCoalescedFetchAccounting: with coalescing on, every subgroup is
// still processed exactly once per phase, and the per-iteration read
// bytes equal the baseline's — members attribute proportional shares of
// each batched op, so nothing is double-counted or dropped.
func TestCoalescedFetchAccounting(t *testing.T) {
	cfg := MLPConfig(0, 2000, 100, memTiers(500), tierlock.NewManager(true))
	cfg.AdaptivePlacement = false
	cfg.HostCacheSlots = 3
	cfg.UpdateWorkers = 2
	cfg.CoalesceFetches = 4
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
		if it.CacheMisses > 0 && it.BytesRead <= 0 {
			t.Fatalf("iteration %d: %d misses but no read bytes accounted", i, it.CacheMisses)
		}
	}
}

// TestCoalescedFetchConvergence: the numeric integration test through
// coalesced vectored reads on a real filesystem — convergence proves the
// batched buffers were split to the right subgroups.
func TestCoalescedFetchConvergence(t *testing.T) {
	cfg := MLPConfig(0, 600, 64, fileTiers(t, 1000, 600), tierlock.NewManager(true))
	cfg.Hyper.LR = 0.05
	cfg.Grad = QuadraticGradFn(3)
	cfg.AdaptivePlacement = false
	cfg.HostCacheSlots = 3
	cfg.CoalesceFetches = 4
	cfg.UpdateWorkers = 2
	params := gatherAfter(t, cfg, 300)
	for i, p := range params {
		if p < 2.9 || p > 3.1 {
			t.Fatalf("param %d = %v, want ~3 (coalesced fetch corrupts buffers?)", i, p)
		}
	}
}

// TestKernelWorkersIdenticalParams: the shared kernel pool mines fixed
// ChunkElems chunks, so the Adam step and the bulk codecs must produce
// bit-identical parameters at any KernelWorkers — including worker
// counts that don't divide the subgroup, odd subgroup sizes larger than
// several chunks, and the copying baseline path.
func TestKernelWorkersIdenticalParams(t *testing.T) {
	for _, mode := range []string{"mlp", "baseline"} {
		t.Run(mode, func(t *testing.T) {
			mk := func(workers int) []float32 {
				// 70001-param subgroups: > 2 chunks each, odd tail.
				var cfg Config
				if mode == "mlp" {
					cfg = MLPConfig(0, 200003, 70001, memTiers(500, 300), tierlock.NewManager(true))
				} else {
					cfg = BaselineConfig(0, 200003, 70001, memTiers(500))
				}
				cfg.AdaptivePlacement = false
				cfg.UpdateWorkers = 1
				cfg.CoalesceFetches = 1
				cfg.KernelWorkers = workers
				return gatherAfter(t, cfg, 3)
			}
			one := mk(1)
			for _, w := range []int{2, 7} {
				got := mk(w)
				for i := range one {
					if one[i] != got[i] {
						t.Fatalf("param %d differs at KernelWorkers=%d: %v vs %v",
							i, w, one[i], got[i])
					}
				}
			}
		})
	}
}

// TestKernelWorkersNonFiniteGrads: loss-scaling skip decisions and the
// treatment of subnormal/Inf/NaN gradients must not depend on the kernel
// worker count — the overflow scan and the update see the same values in
// the same chunks either way.
func TestKernelWorkersNonFiniteGrads(t *testing.T) {
	nastyGrad := func(iter int, i int64, _ float32) float32 {
		switch {
		case iter%4 == 2 && i == 1:
			return float32(math.Inf(1)) // overflows FP16: skip + halve scale
		case iter%4 == 3 && i == 2:
			return float32(math.NaN()) // NaN must also trip the scaler
		case i%3 == 0:
			return 1e-5 // subnormal in FP16
		case i%3 == 1:
			return -6.0e-8 // below FP16 subnormal range: flushes to zero
		default:
			return 1e-3
		}
	}
	mk := func(workers int) ([]float32, int64) {
		cfg := MLPConfig(0, 1100, 100, memTiers(800), tierlock.NewManager(true))
		cfg.AdaptivePlacement = false
		cfg.LossScaling = true
		cfg.Grad = nastyGrad
		cfg.UpdateWorkers = 1
		cfg.CoalesceFetches = 1
		cfg.KernelWorkers = workers
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for i := 0; i < 8; i++ {
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
	if skipped1 == 0 {
		t.Fatal("non-finite gradients never tripped loss scaling; test is vacuous")
	}
	for _, w := range []int{2, 7} {
		got, skipped := mk(w)
		if skipped != skipped1 {
			t.Fatalf("skipped steps differ at KernelWorkers=%d: %d vs %d", w, skipped, skipped1)
		}
		for i := range one {
			a, b := one[i], got[i]
			if a != b && !(math.IsNaN(float64(a)) && math.IsNaN(float64(b))) {
				t.Fatalf("param %d differs at KernelWorkers=%d: %v vs %v", i, w, a, b)
			}
		}
	}
}

// TestAutotuneWidths: the measurement-free derivations of the pipeline
// widths from GOMAXPROCS and the tier count, the passthrough of positive
// values, and the rejection of negative ones. The presets' resolved
// shapes are pinned as literal tables: they are what bench/e2e runs.
func TestAutotuneWidths(t *testing.T) {
	type widths struct{ uw, depth, kw, coalesce int }
	resolved := func(c Config) widths {
		t.Helper()
		if err := c.validate(); err != nil {
			t.Fatal(err)
		}
		return widths{c.UpdateWorkers, c.prefetchDepth(), c.KernelWorkers, c.CoalesceFetches}
	}
	mlp := func() Config { return MLPConfig(0, 1000, 100, memTiers(500, 300), nil) }

	if ioWorkers != 2 {
		t.Fatalf("ioWorkers = %d, want 2", ioWorkers)
	}
	// BaselineConfig pins the paper's fixed shape (1, 2, 1, 1) at any
	// GOMAXPROCS. MLPConfig over two tiers: UpdateWorkers =
	// clamp(procs/2, 1, 4), depth = max(2, UpdateWorkers+2), KernelWorkers
	// = min(procs, 16), CoalesceFetches = min(4, depth).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		procs int
		want  widths
	}{
		{1, widths{1, 3, 1, 3}},
		{2, widths{1, 3, 2, 3}},
		{4, widths{2, 4, 4, 4}},
		{8, widths{4, 6, 8, 4}},
	} {
		runtime.GOMAXPROCS(tc.procs)
		if got, want := resolved(BaselineConfig(0, 1000, 100, memTiers(500))), (widths{1, 2, 1, 1}); got != want {
			t.Errorf("GOMAXPROCS=%d: BaselineConfig resolves to %+v, want %+v", tc.procs, got, want)
		}
		if got := resolved(mlp()); got != tc.want {
			t.Errorf("GOMAXPROCS=%d: MLPConfig resolves to %+v, want %+v", tc.procs, got, tc.want)
		}
	}

	// Positive passes through, except CoalesceFetches clamps to the
	// prefetch window it must assemble inside.
	c := mlp()
	c.UpdateWorkers, c.KernelWorkers, c.CoalesceFetches = 3, 5, 9
	if got, want := resolved(c), (widths{3, 5, 5, 5}); got != want {
		t.Fatalf("explicit widths resolve to %+v, want %+v", got, want)
	}

	// Negative is an error naming the field.
	for field, set := range map[string]func(*Config){
		"UpdateWorkers":   func(c *Config) { c.UpdateWorkers = -1 },
		"KernelWorkers":   func(c *Config) { c.KernelWorkers = -1 },
		"CoalesceFetches": func(c *Config) { c.CoalesceFetches = -1 },
	} {
		c := mlp()
		set(&c)
		if err := c.validate(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s = -1: validate = %v, want an error naming the field", field, err)
		}
	}
}
