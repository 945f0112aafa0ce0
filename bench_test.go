// Package mlpoffload benchmarks: real-engine benchmarks exercising the
// concurrent offload pipeline and ablation benchmarks for the individual
// design principles. The paper's tables and figures are regenerated by
// cmd/mlpbench and pinned by internal/experiments' goldens.
//
// Run with: go test -bench=. -benchmem
package mlpoffload

import (
	"fmt"
	"testing"

	"github.com/datastates/mlpoffload/internal/hostcache"
)

// mkEngine builds a real engine for benchmarking. Unthrottled in-memory
// tiers isolate the pipeline's own overhead (serialization, async I/O,
// conversions, Adam).
func mkEngine(b *testing.B, mode string, params, subgroup int64) *Engine {
	b.Helper()
	var cfg EngineConfig
	switch mode {
	case "baseline":
		tiers := []TierSpec{{Tier: NewMemTier("nvme"), ReadBW: 1e9, WriteBW: 1e9}}
		cfg = BaselineConfig(0, params, subgroup, tiers)
	case "mlp":
		tiers := []TierSpec{
			{Tier: NewMemTier("nvme"), ReadBW: 2e9, WriteBW: 2e9},
			{Tier: NewMemTier("pfs"), ReadBW: 1e9, WriteBW: 1e9},
		}
		cfg = MLPConfig(0, params, subgroup, tiers, NewNodeLocks(true))
	default:
		b.Fatalf("unknown mode %s", mode)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	return eng
}

// BenchmarkRealEngineBaseline measures one full training iteration of the
// ZeRO-3-shaped pipeline (1M params: backward grad flush + 16B/param
// fetches + update + flush).
func BenchmarkRealEngineBaseline(b *testing.B) {
	eng := mkEngine(b, "baseline", 1_000_000, 100_000)
	b.SetBytes(1_000_000 * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.TrainIteration(i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealEngineMLP measures the full MLP-Offload pipeline on the
// same shard (multi-path, alternating order, fused FP16 updates).
func BenchmarkRealEngineMLP(b *testing.B) {
	eng := mkEngine(b, "mlp", 1_000_000, 100_000)
	b.SetBytes(1_000_000 * 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.TrainIteration(i); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks: each design principle toggled individually on the
// real engine (the laptop-scale companion to Figures 14/15).

func benchAblation(b *testing.B, mutate func(*EngineConfig)) {
	b.Helper()
	tiers := []TierSpec{
		{Tier: NewMemTier("nvme"), ReadBW: 2e9, WriteBW: 2e9},
		{Tier: NewMemTier("pfs"), ReadBW: 1e9, WriteBW: 1e9},
	}
	cfg := BaselineConfig(0, 1_000_000, 100_000, tiers)
	mutate(&cfg)
	eng, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.TrainIteration(i); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSequentialOrder(b *testing.B) {
	benchAblation(b, func(c *EngineConfig) { c.Order = Sequential })
}

func BenchmarkAblationAlternatingOrder(b *testing.B) {
	benchAblation(b, func(c *EngineConfig) { c.Order = Alternating; c.HostCacheSlots = 4 })
}

func BenchmarkAblationGradFlush(b *testing.B) {
	benchAblation(b, func(c *EngineConfig) { c.SkipGradFlush = false })
}

func BenchmarkAblationSkipGradFlush(b *testing.B) {
	benchAblation(b, func(c *EngineConfig) { c.SkipGradFlush = true })
}

func BenchmarkAblationSharedIO(b *testing.B) {
	benchAblation(b, func(c *EngineConfig) { c.Locks = nil })
}

func BenchmarkAblationExclusiveIO(b *testing.B) {
	benchAblation(b, func(c *EngineConfig) { c.Locks = NewNodeLocks(true) })
}

func BenchmarkAblationStaticPlacement(b *testing.B) {
	benchAblation(b, func(c *EngineConfig) { c.AdaptivePlacement = false })
}

func BenchmarkAblationAdaptivePlacement(b *testing.B) {
	benchAblation(b, func(c *EngineConfig) { c.AdaptivePlacement = true })
}

// BenchmarkSubgroupSizes sweeps the subgroup granularity (the paper uses
// 100M at scale vs DeepSpeed's 1B default; smaller subgroups overlap
// better).
func BenchmarkSubgroupSizes(b *testing.B) {
	for _, sg := range []int64{50_000, 100_000, 250_000, 500_000} {
		b.Run(fmt.Sprintf("subgroup=%d", sg), func(b *testing.B) {
			eng := mkEngine(b, "mlp", 1_000_000, sg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.TrainIteration(i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUpdateOrderPolicy isolates the pure ordering computation.
func BenchmarkUpdateOrderPolicy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = hostcache.UpdateOrder(hostcache.Alternating, 1000, i)
	}
}
