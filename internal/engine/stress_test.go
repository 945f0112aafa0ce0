package engine

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/datastates/mlpoffload/internal/tierlock"
)

// TestConvergenceStress runs the two-tier convergence scenario many times
// at once, cycling the update-worker count and the host-cache size, so
// fetches, evictions and stale-tier deletes of one subgroup meet under a
// loaded scheduler. An object-ordering bug shows as a fetch or
// GatherParams failing with "key not found" — an offloaded subgroup's
// only copy was deleted — which at one run in twenty is invisible to a
// single convergence test and likely over a hundred. The schedule that
// exposes one is a holder descheduled between two of its steps, so the
// test oversubscribes the CPUs: on a 2-CPU box the bug this was written
// for failed 5% of invocations at GOMAXPROCS=2 and 62% at 8.
func TestConvergenceStress(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 8 {
		runtime.GOMAXPROCS(8)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) }) // after the parallel subtests
	}
	runs := 100
	if testing.Short() {
		runs = 10
	}
	workers := []int{1, 2, 4}
	slots := []int{3, 5}
	for i := 0; i < runs; i++ {
		i := i
		t.Run(fmt.Sprintf("run%03d", i), func(t *testing.T) {
			t.Parallel()
			cfg := MLPConfig(0, 500, 64, memTiers(1000, 600), tierlock.NewManager(true))
			cfg.Hyper.LR = 0.05
			cfg.Grad = QuadraticGradFn(3)
			cfg.UpdateWorkers = workers[i%len(workers)]
			cfg.HostCacheSlots = slots[i%len(slots)]
			for j, p := range gatherAfter(t, cfg, 300) {
				if p < 2.9 || p > 3.1 {
					t.Fatalf("param %d = %v, want ~3", j, p)
				}
			}
		})
	}
}
