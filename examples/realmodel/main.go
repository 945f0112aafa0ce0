// Realmodel: pre-train a real (tiny) GPT through the full MLP-Offload
// pipeline. The transformer's forward and hand-written backward passes
// (gradient-checked in the test suite) produce the gradients; the engine
// keeps the FP16 working copy "on device", offloads the FP32 Adam state
// across two storage tiers, and the next-token loss falls — demonstrating
// that the offloading machinery is transparent to real training.
package main

import (
	"fmt"
	"log"

	mlpoffload "github.com/datastates/mlpoffload"
)

func main() {
	gpt, err := mlpoffload.NewGPT(mlpoffload.GPTConfig{
		Vocab: 32, Seq: 16, Dim: 32, Heads: 4, Layers: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	params := gpt.ParamCount()
	fmt.Printf("GPT: %d parameters (optimizer state: %d bytes FP32 P/M/V)\n",
		params, params*12)

	// Training corpus: a deterministic token pattern the model can learn.
	tokens := make([]int, 16)
	for i := range tokens {
		tokens[i] = (i*5 + 3) % 32
	}

	init := make([]float32, params)
	if err := gpt.Init(init, 1234); err != nil {
		log.Fatal(err)
	}
	scratch := make([]float32, params)

	tiers := []mlpoffload.TierSpec{
		{Tier: mlpoffload.NewMemTier("nvme"), ReadBW: 2e9, WriteBW: 2e9},
		{Tier: mlpoffload.NewMemTier("pfs"), ReadBW: 1e9, WriteBW: 1e9, Persistent: true},
	}
	cfg := mlpoffload.MLPConfig(0, params, params/8+1, tiers, mlpoffload.NewNodeLocks(true))
	cfg.InitParams = func(i int64) float32 { return init[i] }
	cfg.Hyper.LR = 3e-3
	cfg.ClipNorm = 5
	cfg.BatchGrad = func(_ int, p16 []mlpoffload.FP16, out []float32) error {
		mlpoffload.DecodeFP16(scratch, p16)
		for i := range out {
			out[i] = 0
		}
		_, err := gpt.Backward(scratch, tokens, out)
		return err
	}

	eng, err := mlpoffload.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	loss := func() float64 {
		mlpoffload.DecodeFP16(scratch, eng.Params16())
		l, err := gpt.Loss(scratch, tokens)
		if err != nil {
			log.Fatal(err)
		}
		return l
	}

	fmt.Printf("initial LM loss: %.4f (ln(32) = 3.47 would be uniform)\n", loss())
	for i := 0; i < 400; i++ {
		if _, err := eng.TrainIteration(i); err != nil {
			log.Fatal(err)
		}
		if (i+1)%100 == 0 {
			fmt.Printf("iter %3d: loss %.4f\n", i+1, loss())
		}
	}
	m := eng.Series().Mean()
	fmt.Printf("\noffload machinery during training: %.0f KB fetched/iter, hit rate %.0f%%, placement %s\n",
		m.BytesRead/1024, m.HitRate()*100, eng.Plan().Ratio())
	final := loss()
	if final >= 1.0 {
		log.Fatalf("loss %.4f — expected < 1.0", final)
	}
	fmt.Printf("OK: model memorized the sequence (loss %.4f) with its optimizer state offloaded\n", final)
}
