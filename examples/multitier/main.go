// Multitier: the laptop-scale analogue of the paper's headline experiment.
// Four worker engines (one per simulated GPU) share bandwidth-throttled
// NVMe and PFS tiers on one "node"; we train the same scaled-down shard
// under the DeepSpeed-ZeRO-3 baseline and under MLP-Offload and compare
// iteration times — every byte really moves through the throttled tiers.
//
// The second act demonstrates plan convergence: mid-run, the PFS slows to
// a crawl (external load on the shared file system); adaptive placement
// replans toward the NVMe, and the next update phase's eviction writes —
// which every phase makes anyway — carry the displaced subgroups there.
// Nothing copies objects in the background, so a subgroup is off-plan only
// between the replan that moved it and the next update phase, which
// evicts it to its new tier; the program fails if one stays off-plan
// through that phase, or if the plan does not shift toward the NVMe.
package main

import (
	"fmt"
	"log"
	"sync"

	mlpoffload "github.com/datastates/mlpoffload"
)

const (
	paramsPerWorker = 1_500_000
	subgroupParams  = 150_000
	iterations      = 5
	workers         = 4
)

// Table-1 bandwidth ratios scaled to ~1/10000 so an iteration takes
// milliseconds: NVMe 690/530 KB/s -> use MB/s scale for speed.
func tiers(includePFS bool) []mlpoffload.TierSpec {
	nvme := mlpoffload.NewThrottledTier(mlpoffload.NewMemTier("nvme"),
		mlpoffload.ThrottleSpec{ReadBW: 69e6, WriteBW: 53e6, InterferenceAlpha: 0.2})
	out := []mlpoffload.TierSpec{{Tier: nvme, ReadBW: 69e6, WriteBW: 53e6}}
	if includePFS {
		pfs := mlpoffload.NewThrottledTier(mlpoffload.NewMemTier("pfs"),
			mlpoffload.ThrottleSpec{ReadBW: 36e6, WriteBW: 36e6, InterferenceAlpha: 0.1})
		out = append(out, mlpoffload.TierSpec{Tier: pfs, ReadBW: 36e6, WriteBW: 36e6})
	}
	return out
}

// trainNode runs `workers` engines concurrently and returns the mean
// iteration time across workers.
func trainNode(mode string) float64 {
	ts := tiers(mode == "mlp")
	locks := mlpoffload.NewNodeLocks(mode == "mlp")
	var wg sync.WaitGroup
	totals := make([]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var cfg mlpoffload.EngineConfig
			if mode == "mlp" {
				cfg = mlpoffload.MLPConfig(rank, paramsPerWorker, subgroupParams, ts, locks)
			} else {
				cfg = mlpoffload.BaselineConfig(rank, paramsPerWorker, subgroupParams, ts)
			}
			eng, err := mlpoffload.NewEngine(cfg)
			if err != nil {
				log.Fatal(err)
			}
			defer eng.Close()
			for i := 0; i < iterations; i++ {
				if _, err := eng.TrainIteration(i); err != nil {
					log.Fatal(err)
				}
			}
			totals[rank] = eng.Series().Mean().Phases.Total()
		}(w)
	}
	wg.Wait()
	sum := 0.0
	for _, t := range totals {
		sum += t
	}
	return sum / workers
}

// convergenceDemo trains one MLP-Offload worker, slows the PFS mid-run,
// and traces how the placement plan shifts and the eviction writes
// converge the subgroup layout onto it.
func convergenceDemo() {
	// Bursts below one subgroup object (1.8 MB here) so the *observed*
	// per-transfer bandwidth tracks the configured rates and the
	// estimator sees the slowdown.
	const burst = 1 << 20
	nvme := mlpoffload.NewThrottledTier(mlpoffload.NewMemTier("nvme"),
		mlpoffload.ThrottleSpec{ReadBW: 200e6, WriteBW: 200e6, ReadBurst: burst, WriteBurst: burst})
	pfs := mlpoffload.NewThrottledTier(mlpoffload.NewMemTier("pfs"),
		mlpoffload.ThrottleSpec{ReadBW: 100e6, WriteBW: 100e6, ReadBurst: burst, WriteBurst: burst})
	ts := []mlpoffload.TierSpec{
		{Tier: nvme, ReadBW: 200e6, WriteBW: 200e6},
		{Tier: pfs, ReadBW: 100e6, WriteBW: 100e6},
	}
	cfg := mlpoffload.MLPConfig(0, paramsPerWorker, subgroupParams, ts, nil)
	eng, err := mlpoffload.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	fmt.Println("\nplan convergence under a mid-run PFS slowdown (1 worker):")
	fmt.Println("a replan marks subgroups misplaced; the next update phase's evictions move them")
	fmt.Printf("%-5s %-22s %-11s %-11s\n", "iter", "plan", "misplaced", "moves")
	const slowdownAt = 3
	nvmeBefore := eng.Plan().Counts[0]
	for i := 0; i < 10; i++ {
		if i == slowdownAt {
			pfs.SetRates(10e6, 10e6) // external load: PFS drops to 1/10th
			fmt.Println("      >>> pfs collapses to 10 MB/s <<<")
		}
		before := eng.Plan()
		if _, err := eng.TrainIteration(i); err != nil {
			log.Fatal(err)
		}
		eng.Drain() // settle the iteration's flushes before reading placement
		plan := eng.Plan()
		misplaced := 0
		for _, l := range eng.CheckpointLocations() {
			sg := l.SubgroupID
			if l.TierName == "host" || l.TierName == plan.Tiers[plan.TierFor(sg)].Name {
				continue
			}
			misplaced++
			// Off-plan is legitimate only if the replan that just ran moved
			// it; otherwise the update phase failed to move it.
			if before.TierFor(sg) == plan.TierFor(sg) {
				log.Fatalf("iteration %d: subgroup %d stayed on %s through an update phase that should have moved it to %s",
					i, sg, l.TierName, plan.Tiers[plan.TierFor(sg)].Name)
			}
		}
		fmt.Printf("%-5d %-22s %-11d %-11d\n", i, plan.Ratio(), misplaced, eng.MigrationStats().Moves)
	}
	if after := eng.Plan(); after.Counts[0] <= nvmeBefore {
		log.Fatalf("plan did not shift toward nvme after the pfs slowdown: %s", after.Ratio())
	}
	fmt.Println("placement followed the plan: no subgroup stayed off-plan past the next update phase")
}

func main() {
	fmt.Println("training 4 workers x 1.5M params on one throttled node...")
	base := trainNode("baseline")
	fmt.Printf("DeepSpeed ZeRO-3 (NVMe only, sequential, grad flush): %.3fs/iter\n", base)
	mlp := trainNode("mlp")
	fmt.Printf("MLP-Offload (NVMe+PFS, alternating, skip grads):      %.3fs/iter\n", mlp)
	fmt.Printf("speedup: %.2fx (paper reports ~2.5x at 40B-280B scale)\n", base/mlp)
	convergenceDemo()
}
