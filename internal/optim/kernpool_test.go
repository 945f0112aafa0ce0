package optim

import (
	"strconv"
	"testing"

	"github.com/datastates/mlpoffload/internal/fp16"
	"github.com/datastates/mlpoffload/internal/kernpool"
)

// benchGrads16 builds a finite FP16 gradient set (NaN/Inf would make the
// kernel's work data-dependent across iterations).
func benchGrads16(n int) []fp16.Bits {
	out := make([]fp16.Bits, n)
	for i := range out {
		out[i] = fp16.FromFloat32(0.001 * float32(i%17))
	}
	return out
}

// BenchmarkStepFP16KernelPool measures the fused FP16 Adam step through
// the shared kernel pool at several worker counts; workers=serial is the
// nil-pool baseline the engine uses at KernelWorkers=1.
func BenchmarkStepFP16KernelPool(b *testing.B) {
	n := 1 << 20
	grads := benchGrads16(n)
	h := DefaultHyper()
	run := func(b *testing.B, p *kernpool.Pool) {
		s := NewState(make([]float32, n))
		b.SetBytes(int64(n) * 14) // P+M+V+G16 traffic
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			StepFP16On(p, s, grads, h, i+1)
		}
	}
	b.Run("workers=serial", func(b *testing.B) { run(b, nil) })
	for _, w := range []int{2, 4} {
		p := kernpool.New(w)
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) { run(b, p) })
		p.Close()
	}
}

// BenchmarkStepFP32KernelPool is the FP32 (baseline-path) counterpart.
func BenchmarkStepFP32KernelPool(b *testing.B) {
	n := 1 << 20
	grads := make([]float32, n)
	for i := range grads {
		grads[i] = 0.001 * float32(i%17)
	}
	h := DefaultHyper()
	run := func(b *testing.B, p *kernpool.Pool) {
		s := NewState(make([]float32, n))
		b.SetBytes(int64(n) * 16) // P+M+V+G traffic
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			StepFP32To(p, s, grads, nil, h, i+1)
		}
	}
	b.Run("workers=serial", func(b *testing.B) { run(b, nil) })
	for _, w := range []int{2, 4} {
		p := kernpool.New(w)
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) { run(b, p) })
		p.Close()
	}
}
