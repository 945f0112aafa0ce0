package optim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/datastates/mlpoffload/internal/fp16"
	"github.com/datastates/mlpoffload/internal/kernpool"
)

// refAdam is an independent scalar float64 reference implementation.
func refAdam(p, m, v, g float64, h Hyper, t int) (np, nm, nv float64) {
	nm = h.Beta1*m + (1-h.Beta1)*g
	nv = h.Beta2*v + (1-h.Beta2)*g*g
	mhat := nm / (1 - math.Pow(h.Beta1, float64(t)))
	vhat := nv / (1 - math.Pow(h.Beta2, float64(t)))
	if h.WeightDecay != 0 {
		p -= h.LR * h.WeightDecay * p
	}
	np = p - h.LR*mhat/(math.Sqrt(vhat)+h.Eps)
	return
}

func TestStepMatchesReference(t *testing.T) {
	h := Hyper{LR: 0.001, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	rng := rand.New(rand.NewSource(1))
	n := 257
	params := make([]float32, n)
	grads := make([]float32, n)
	for i := range params {
		params[i] = rng.Float32()*2 - 1
		grads[i] = rng.Float32()*0.2 - 0.1
	}
	s := NewState(params)
	// Track reference state in float64 but quantize to float32 each step
	// to follow the implementation exactly.
	refP := make([]float64, n)
	refM := make([]float64, n)
	refV := make([]float64, n)
	for i := range params {
		refP[i] = float64(params[i])
	}
	for step := 1; step <= 3; step++ {
		StepFP32(s, grads, h, step)
		for i := 0; i < n; i++ {
			p, m, v := refAdam(refP[i], refM[i], refV[i], float64(grads[i]), h, step)
			refP[i] = float64(float32(p))
			refM[i] = float64(float32(m))
			refV[i] = float64(float32(v))
		}
	}
	for i := 0; i < n; i++ {
		if math.Abs(float64(s.Params[i])-refP[i]) > 1e-5 {
			t.Fatalf("param %d: got %v, ref %v", i, s.Params[i], refP[i])
		}
	}
}

func TestFP16PathMatchesFP32Path(t *testing.T) {
	// The delayed-conversion claim: updating from FP16 gradients widened
	// on the fly is bit-identical to widening first and using FP32.
	h := DefaultHyper()
	rng := rand.New(rand.NewSource(2))
	n := 1000
	params := make([]float32, n)
	g16 := make([]fp16.Bits, n)
	for i := range params {
		params[i] = rng.Float32()
		g16[i] = fp16.FromFloat32(rng.Float32()*0.02 - 0.01)
	}
	g32 := make([]float32, n)
	fp16.Decode(g32, g16)

	a := NewState(params)
	b := NewState(params)
	for step := 1; step <= 4; step++ {
		StepFP16(a, g16, h, step)
		StepFP32(b, g32, h, step)
	}
	for i := 0; i < n; i++ {
		if a.Params[i] != b.Params[i] || a.M[i] != b.M[i] || a.V[i] != b.V[i] {
			t.Fatalf("FP16 path diverges at %d: %v vs %v", i, a.Params[i], b.Params[i])
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	h := DefaultHyper()
	rng := rand.New(rand.NewSource(3))
	n := 40000
	params := make([]float32, n)
	grads := make([]float32, n)
	for i := range params {
		params[i] = rng.Float32()
		grads[i] = rng.Float32() * 0.01
	}
	pool := kernpool.New(4)
	defer pool.Close()
	a := NewState(params)
	b := NewState(params)
	StepFP32(a, grads, h, 1)
	StepFP32On(pool, b, grads, h, 1)
	for i := 0; i < n; i++ {
		if a.Params[i] != b.Params[i] {
			t.Fatalf("parallel diverges at %d", i)
		}
	}
	g16 := make([]fp16.Bits, n)
	fp16.Encode(g16, grads)
	c := NewState(params)
	d := NewState(params)
	StepFP16(c, g16, h, 1)
	StepFP16On(pool, d, g16, h, 1)
	for i := 0; i < n; i++ {
		if c.Params[i] != d.Params[i] {
			t.Fatalf("fp16 parallel diverges at %d", i)
		}
	}
}

func TestConvergesOnQuadratic(t *testing.T) {
	// Minimize f(p) = 0.5*(p-3)^2 per-coordinate; Adam should approach 3.
	h := Hyper{LR: 0.05, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	s := NewState([]float32{0, 10, -5})
	grads := make([]float32, 3)
	for step := 1; step <= 2000; step++ {
		for i, p := range s.Params {
			grads[i] = p - 3
		}
		StepFP32(s, grads, h, step)
	}
	for i, p := range s.Params {
		if math.Abs(float64(p)-3) > 0.05 {
			t.Errorf("param %d = %v, want ~3", i, p)
		}
	}
}

func TestWeightDecay(t *testing.T) {
	h := Hyper{LR: 0.1, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: 0.5}
	s := NewState([]float32{2})
	StepFP32(s, []float32{0}, h, 1)
	// Zero gradient: moments stay 0, update term is 0/(0+eps)=0, so only
	// decay applies: p = 2 - 0.1*0.5*2 = 1.9.
	if math.Abs(float64(s.Params[0])-1.9) > 1e-6 {
		t.Errorf("param = %v, want 1.9", s.Params[0])
	}
}

func TestValidate(t *testing.T) {
	good := DefaultHyper()
	if err := good.Validate(); err != nil {
		t.Errorf("default hyper invalid: %v", err)
	}
	bad := []Hyper{
		{LR: 0, Beta1: 0.9, Beta2: 0.99, Eps: 1e-8},
		{LR: 1e-3, Beta1: 1.0, Beta2: 0.99, Eps: 1e-8},
		{LR: 1e-3, Beta1: 0.9, Beta2: -0.1, Eps: 1e-8},
		{LR: 1e-3, Beta1: 0.9, Beta2: 0.99, Eps: 0},
		{LR: 1e-3, Beta1: 0.9, Beta2: 0.99, Eps: 1e-8, WeightDecay: -1},
	}
	for i, h := range bad {
		if err := h.Validate(); err == nil {
			t.Errorf("bad hyper %d passed validation", i)
		}
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	s := NewState([]float32{1, 2})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	StepFP32(s, []float32{1}, DefaultHyper(), 1)
}

func TestStepZeroPanics(t *testing.T) {
	s := NewState([]float32{1})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	StepFP32(s, []float32{0}, DefaultHyper(), 0)
}

func TestPropertyUpdateOrderIndependent(t *testing.T) {
	// The cache-friendly reordering claim: updating subgroup A then B
	// gives the same result as B then A (element independence).
	h := DefaultHyper()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		pa := make([]float32, n)
		ga := make([]float32, n)
		pb := make([]float32, n)
		gb := make([]float32, n)
		for i := 0; i < n; i++ {
			pa[i] = rng.Float32()
			ga[i] = rng.Float32() * 0.1
			pb[i] = rng.Float32()
			gb[i] = rng.Float32() * 0.1
		}
		// Order 1: A then B.
		a1, b1 := NewState(pa), NewState(pb)
		StepFP32(a1, ga, h, 1)
		StepFP32(b1, gb, h, 1)
		// Order 2: B then A.
		a2, b2 := NewState(pa), NewState(pb)
		StepFP32(b2, gb, h, 1)
		StepFP32(a2, ga, h, 1)
		for i := 0; i < n; i++ {
			if a1.Params[i] != a2.Params[i] || b1.Params[i] != b2.Params[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGradNorm(t *testing.T) {
	if got := GradNorm([]float32{3, 4}); math.Abs(got-5) > 1e-9 {
		t.Errorf("GradNorm = %v", got)
	}
	if GradNorm(nil) != 0 {
		t.Error("empty norm should be 0")
	}
}

func TestHasOverflow(t *testing.T) {
	ok := []fp16.Bits{fp16.FromFloat32(1), fp16.FromFloat32(-2)}
	if HasOverflow(ok) {
		t.Error("finite grads flagged")
	}
	bad := append(ok, fp16.PositiveInfinity)
	if !HasOverflow(bad) {
		t.Error("Inf not detected")
	}
	nan := append(ok, fp16.FromFloat32(float32(math.NaN())))
	if !HasOverflow(nan) {
		t.Error("NaN not detected")
	}
}

func BenchmarkStepFP32(b *testing.B) {
	n := 1 << 20
	s := NewState(make([]float32, n))
	grads := make([]float32, n)
	for i := range grads {
		grads[i] = 0.001
	}
	h := DefaultHyper()
	b.SetBytes(int64(n) * 16) // P+M+V+G traffic
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StepFP32(s, grads, h, i+1)
	}
}

func BenchmarkStepFP16Fused(b *testing.B) {
	n := 1 << 20
	s := NewState(make([]float32, n))
	grads := make([]fp16.Bits, n)
	for i := range grads {
		grads[i] = fp16.FromFloat32(0.001)
	}
	h := DefaultHyper()
	b.SetBytes(int64(n) * 14) // P+M+V+G16 traffic
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StepFP16(s, grads, h, i+1)
	}
}
