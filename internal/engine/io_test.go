package engine

import (
	"context"
	"testing"

	"github.com/datastates/mlpoffload/internal/checkpoint"
	"github.com/datastates/mlpoffload/internal/metrics"
	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/subgroup"
)

// TestIterationIOAccounting pins what an iteration's I/O fields count:
// every op the engine's aio engines completed, whatever path submitted
// it. The rig is 12 subgroups of 4096 params on in-memory tiers; a state
// object is 12 B/param plus its header, an FP32 gradient object 4
// B/param.
//
//   - baseline (sequential order, 3 cache slots: every subgroup misses):
//     12 state and 12 gradient reads, 12 eviction flushes and 12
//     gradient writes — 16 B/param plus headers each way, 24 Flush ops.
//   - MLP (alternating order, fixed placement, 3 cache slots): 3 hits,
//     so 9 state objects fetched and 9 flushed.
//
// Construction traffic counts toward no iteration, and the per-class
// breakdown sums to the aggregates in raw and in wire bytes.
func TestIterationIOAccounting(t *testing.T) {
	const sgParams, subgroups = 4096, 12
	state := float64(subgroup.StateBytes(sgParams))
	grad := float64(4 * sgParams)
	for _, tc := range []struct {
		name        string
		cfg         Config
		read, write float64
		flushOps    int
	}{
		{"baseline", BaselineConfig(0, sgParams*subgroups, sgParams, memTiers(2e9, 1e9)),
			subgroups * (state + grad), subgroups * (state + grad), 2 * subgroups},
		{"mlp", func() Config {
			c := MLPConfig(0, sgParams*subgroups, sgParams, memTiers(2e9, 1e9), nil)
			c.AdaptivePlacement = false
			return c
		}(), 9 * state, 9 * state, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			var built metrics.Iteration
			e.foldIO(&built)
			if built.BytesRead != 0 || built.BytesWritten != 0 || built.ClassIO != nil {
				t.Errorf("construction traffic left for the first iteration: %+v", built)
			}
			run(t, e, 2) // warm the cache into its steady state

			// Bracket the measured iterations with drains: what the
			// iterations publish, plus the flushes still in flight at the
			// last one's fold, is exactly their traffic.
			const measured = 3
			e.Drain()
			e.foldIO(new(metrics.Iteration))
			var total metrics.Iteration
			for i := 2; i < 2+measured; i++ {
				it, err := e.TrainIteration(i)
				if err != nil {
					t.Fatal(err)
				}
				total.Merge(it)
			}
			e.Drain()
			e.foldIO(&total)

			if total.BytesRead != measured*tc.read || total.BytesWritten != measured*tc.write {
				t.Errorf("read/written %.0f/%.0f B per iteration, want %.0f/%.0f",
					total.BytesRead/measured, total.BytesWritten/measured, tc.read, tc.write)
			}
			if got := total.ClassIO["flush"].Ops; got != measured*tc.flushOps {
				t.Errorf("flush ops %d per iteration, want %d", got/measured, tc.flushOps)
			}
			var raw, wire float64
			for _, c := range total.ClassIO {
				raw += c.Bytes
				wire += c.WireBytes
			}
			if raw != total.BytesRead+total.BytesWritten {
				t.Errorf("classes sum to %.0f raw bytes, aggregates to %.0f", raw, total.BytesRead+total.BytesWritten)
			}
			if wire != total.WireBytesRead+total.WireBytesWritten {
				t.Errorf("classes sum to %.0f wire bytes, aggregates to %.0f", wire, total.WireBytesRead+total.WireBytesWritten)
			}

			// A restore, like construction, leaves nothing for the next
			// iteration.
			ctx := context.Background()
			ckpt := checkpoint.NewWriter(storage.NewMemTier("ckpt"), "run")
			defer ckpt.Close()
			m, err := e.Checkpoint(ctx, 5, ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Restore(ctx, checkpoint.NewReader(ckpt.Tier(), "run"), m); err != nil {
				t.Fatal(err)
			}
			var restored metrics.Iteration
			e.foldIO(&restored)
			if restored.BytesRead != 0 || restored.BytesWritten != 0 || restored.ClassIO != nil {
				t.Errorf("restore traffic left for the next iteration: %+v", restored)
			}
		})
	}
}
