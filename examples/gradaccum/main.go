// Gradaccum: gradient accumulation on the real engine — several backward
// passes per update phase amortize the expensive offloaded update (the
// paper's Figure 13 scenario), and the accumulated FP16 gradients remain
// numerically correct through the offload path.
package main

import (
	"fmt"
	"log"
	"math"

	mlpoffload "github.com/datastates/mlpoffload"
)

func main() {
	const params, subgroup = 400_000, 50_000
	var ref []float32 // accum=1's parameters
	for _, accum := range []int{1, 2, 4, 8} {
		tiers := []mlpoffload.TierSpec{{
			Tier: mlpoffload.NewThrottledTier(mlpoffload.NewMemTier("nvme"),
				mlpoffload.ThrottleSpec{ReadBW: 50e6, WriteBW: 40e6}),
			ReadBW: 50e6, WriteBW: 40e6,
		}}
		cfg := mlpoffload.MLPConfig(0, params, subgroup, tiers, mlpoffload.NewNodeLocks(true))
		cfg.GradAccumSteps = accum
		// Constant gradient of 1/accum: the accumulated total is 1.0
		// regardless of accum, so the parameter trajectory is identical.
		step := float32(1.0) / float32(accum)
		cfg.Grad = func(_ int, _ int64, _ float32) float32 { return step }

		eng, err := mlpoffload.NewEngine(cfg)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := eng.TrainIteration(i); err != nil {
				log.Fatal(err)
			}
		}
		m := eng.Series().Mean()
		out := make([]float32, params)
		if err := eng.GatherParams(out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("accum=%d (batch x%d): iter=%.3fs bwd=%.3fs upd=%.3fs  param[0]=%.6f\n",
			accum, accum, m.Phases.Total(), m.Phases.Backward, m.Phases.Update, out[0])
		eng.Close()
		if ref == nil {
			ref = out
			continue
		}
		for i := range out {
			if math.Float32bits(out[i]) != math.Float32bits(ref[i]) {
				log.Fatalf("accum=%d: param[%d] = %v, accum=1 gave %v", accum, i, out[i], ref[i])
			}
		}
	}
	fmt.Println("\nEvery parameter is bit-identical across accumulation settings: the update")
	fmt.Println("phase cost is amortized over larger effective batches (Fig. 13).")
}
