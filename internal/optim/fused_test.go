package optim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/datastates/mlpoffload/internal/fp16"
	"github.com/datastates/mlpoffload/internal/kernpool"
)

// nastyValues fills a gradient slice with the hard cases: subnormals,
// values that flush to zero in FP16, Inf, NaN, and ordinary magnitudes.
func nastyValues(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		switch i % 7 {
		case 0:
			out[i] = 1e-5 // subnormal in FP16
		case 1:
			out[i] = -6.0e-8 // below FP16 subnormal: flushes to zero
		case 2:
			out[i] = float32(math.Inf(1))
		case 3:
			out[i] = float32(math.NaN())
		default:
			out[i] = float32(rng.NormFloat64()) * 0.01
		}
	}
	return out
}

// refStep is the per-element Adam formula in its original closure form:
// every gradient is fetched through g, which on the FP16 path calls the
// scalar fp16.ToFloat32. The fused kernel must reproduce it bit for bit.
func refStep(s *State, h Hyper, t int, g func(i int) float32) {
	c1, c2 := biasCorrections(h, t)
	lr := float32(h.LR)
	b1 := float32(h.Beta1)
	b2 := float32(h.Beta2)
	omb1 := float32(1 - h.Beta1)
	omb2 := float32(1 - h.Beta2)
	eps := float32(h.Eps)
	wd := float32(h.WeightDecay)
	ic1 := float32(1 / c1)
	ic2 := float32(1 / c2)
	for i := range s.Params {
		gi := g(i)
		m := b1*s.M[i] + omb1*gi
		v := b2*s.V[i] + omb2*gi*gi
		s.M[i] = m
		s.V[i] = v
		mhat := m * ic1
		vhat := v * ic2
		p := s.Params[i]
		if wd != 0 {
			p -= lr * wd * p
		}
		s.Params[i] = p - lr*mhat/(sqrt32(vhat)+eps)
	}
}

// fusedParams are initial master parameters that drive the FP16 output
// through every narrowing branch: normal halves, FP16 overflow, FP16
// subnormals and underflow, and signed zeros.
func fusedParams(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		switch i % 6 {
		case 0:
			out[i] = 7e4 // beyond the largest finite half
		case 1:
			out[i] = 3e-6 // subnormal half
		case 2:
			out[i] = -1e-9 // underflows to -0 in FP16
		case 3:
			out[i] = 0
		default:
			out[i] = float32(i%13)*0.1 - 0.6
		}
	}
	return out
}

// sameBits reports the first index where a and b differ bit for bit.
func sameBits(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// TestFusedStepMatchesClosureFormula pins the fused pass to refStep:
// parameters and both moments bit-identical after each of steps 1–3,
// with and without weight decay, on FP16 and FP32 gradients, at lengths
// inside one chunk and across chunk boundaries, serially and through
// pools of 1, 2 and 7 workers; and the FP16 output equal to fp16.Encode
// of the updated parameters.
func TestFusedStepMatchesClosureFormula(t *testing.T) {
	type runner struct {
		name string
		pool *kernpool.Pool
	}
	runners := []runner{{"serial", nil}}
	for _, w := range []int{1, 2, 7} {
		p := kernpool.New(w)
		defer p.Close()
		runners = append(runners, runner{fmt.Sprintf("pool%d", w), p})
	}
	for _, n := range []int{1, 7, kernpool.ChunkElems, 2*kernpool.ChunkElems + 4097} {
		grads := nastyValues(n, int64(n))
		grads16 := make([]fp16.Bits, n)
		fp16.Encode(grads16, grads)
		init := fusedParams(n)
		for _, wd := range []float64{0, 0.01} {
			h := DefaultHyper()
			h.WeightDecay = wd
			for _, fp16Grads := range []bool{true, false} {
				g := func(i int) float32 { return grads[i] }
				if fp16Grads {
					g = func(i int) float32 { return fp16.ToFloat32(grads16[i]) }
				}
				// want[t-1] is the reference state after step t.
				var want [3]*State
				ref := NewState(init)
				for step := 1; step <= 3; step++ {
					refStep(ref, h, step, g)
					want[step-1] = NewState(ref.Params)
					copy(want[step-1].M, ref.M)
					copy(want[step-1].V, ref.V)
				}
				for _, r := range runners {
					for _, withOut := range []bool{true, false} {
						name := fmt.Sprintf("n=%d wd=%g fp16=%v %s out=%v", n, wd, fp16Grads, r.name, withOut)
						s := NewState(init)
						var out, enc []fp16.Bits
						if withOut {
							out, enc = make([]fp16.Bits, n), make([]fp16.Bits, n)
						}
						for step := 1; step <= 3; step++ {
							switch {
							case fp16Grads && withOut:
								StepFP16To(r.pool, s, grads16, out, h, step)
							case fp16Grads && r.pool == nil:
								StepFP16(s, grads16, h, step)
							case fp16Grads:
								StepFP16On(r.pool, s, grads16, h, step)
							case r.pool == nil && !withOut:
								StepFP32(s, grads, h, step)
							default:
								StepFP32To(r.pool, s, grads, out, h, step)
							}
							w := want[step-1]
							for _, f := range []struct {
								field     string
								got, want []float32
							}{{"param", s.Params, w.Params}, {"m", s.M, w.M}, {"v", s.V, w.V}} {
								if i, ok := sameBits(f.got, f.want); !ok {
									t.Fatalf("%s step %d: %s[%d] = %x, want %x", name, step, f.field, i,
										math.Float32bits(f.got[i]), math.Float32bits(f.want[i]))
								}
							}
							if withOut {
								fp16.Encode(enc, s.Params)
								for i := range out {
									if out[i] != enc[i] {
										t.Fatalf("%s step %d: params16[%d] = %#x, want fp16.Encode %#x", name, step, i, out[i], enc[i])
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestFusedStepOutputLengthPanics: a working copy of the wrong length is
// a caller bug, reported before any element is touched.
func TestFusedStepOutputLengthPanics(t *testing.T) {
	s := NewState([]float32{1, 2})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
		if s.Params[0] != 1 || s.Params[1] != 2 {
			t.Errorf("params changed before the panic: %v", s.Params)
		}
	}()
	StepFP32To(nil, s, []float32{1, 1}, make([]fp16.Bits, 1), DefaultHyper(), 1)
}

// TestPooledStepAllocatesNothing: a pooled step reuses its kernel job
// and the pool its dispatch descriptor, so the steady-state update
// dispatch allocates nothing.
func TestPooledStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under -race")
	}
	n := 2*kernpool.ChunkElems + 9
	s := NewState(make([]float32, n))
	grads := benchGrads16(n)
	out := make([]fp16.Bits, n)
	p := kernpool.New(2)
	defer p.Close()
	h := DefaultHyper()
	step := 1
	if a := testing.AllocsPerRun(50, func() { StepFP16To(p, s, grads, out, h, step); step++ }); a != 0 {
		t.Fatalf("pooled StepFP16To allocates %v times per call, want 0", a)
	}
}

// TestConcurrentStepsShareOnePool runs several steps at once through one
// pool, as the engine's update workers do: recycled jobs and dispatch
// descriptors must never mix two callers' states.
func TestConcurrentStepsShareOnePool(t *testing.T) {
	n := 3*kernpool.ChunkElems + 11
	grads := nastyValues(n, 5)
	grads16 := make([]fp16.Bits, n)
	fp16.Encode(grads16, grads)
	h := DefaultHyper()
	want := NewState(fusedParams(n))
	for step := 1; step <= 3; step++ {
		StepFP16(want, grads16, h, step)
	}
	wantOut := make([]fp16.Bits, n)
	fp16.Encode(wantOut, want.Params)

	p := kernpool.New(3)
	defer p.Close()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewState(fusedParams(n))
			out := make([]fp16.Bits, n)
			for step := 1; step <= 3; step++ {
				StepFP16To(p, s, grads16, out, h, step)
			}
			if i, ok := sameBits(s.Params, want.Params); !ok {
				t.Errorf("caller %d: param[%d] differs from the serial step", c, i)
			}
			for i := range out {
				if out[i] != wantOut[i] {
					t.Errorf("caller %d: params16[%d] differs from the serial step", c, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
