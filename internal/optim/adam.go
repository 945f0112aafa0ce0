// Package optim implements the CPU-based Adam optimizer used during the
// update phase of offloaded training. When the optimizer state lives on
// host memory or third-level storage, updates run on the CPU (transferring
// FP32 state to the GPU would negate its compute advantage), chunk-parallel
// across cores.
//
// Two gradient paths are provided:
//   - StepFP32: the baseline path — gradients were upscaled to FP32 during
//     the backward pass (and, in the ZeRO-3 baseline, flushed to and
//     re-fetched from disk alongside the optimizer state);
//   - StepFP16: MLP-Offload's delayed in-place conversion — FP16 gradients
//     straight from the host accumulation buffer are widened on the fly
//     inside the update kernel, eliminating the FP32 gradient I/O.
//
// Both produce bit-identical results given equal gradient values, which is
// the paper's correctness argument for the optimization (the same
// standardized numeric primitives, applied later).
package optim

import (
	"fmt"
	"math"

	"github.com/datastates/mlpoffload/internal/fp16"
)

// Hyper holds Adam hyperparameters.
type Hyper struct {
	LR    float64 // learning rate
	Beta1 float64
	Beta2 float64
	Eps   float64
	// WeightDecay is decoupled (AdamW-style); 0 disables.
	WeightDecay float64
}

// DefaultHyper returns the conventional LLM pre-training settings.
func DefaultHyper() Hyper {
	return Hyper{LR: 6e-5, Beta1: 0.9, Beta2: 0.95, Eps: 1e-8}
}

// Validate rejects out-of-range hyperparameters.
func (h Hyper) Validate() error {
	if h.LR <= 0 {
		return fmt.Errorf("optim: LR must be positive, got %g", h.LR)
	}
	if h.Beta1 < 0 || h.Beta1 >= 1 || h.Beta2 < 0 || h.Beta2 >= 1 {
		return fmt.Errorf("optim: betas must be in [0,1), got %g/%g", h.Beta1, h.Beta2)
	}
	if h.Eps <= 0 {
		return fmt.Errorf("optim: eps must be positive, got %g", h.Eps)
	}
	if h.WeightDecay < 0 {
		return fmt.Errorf("optim: weight decay must be non-negative, got %g", h.WeightDecay)
	}
	return nil
}

// State is one subgroup's FP32 optimizer state: master parameters plus
// first and second moments, all the same length.
type State struct {
	Params []float32
	M      []float32
	V      []float32
}

// NewState allocates zeroed moments for n parameters with the given
// initial master parameters (copied).
func NewState(params []float32) *State {
	p := make([]float32, len(params))
	copy(p, params)
	return &State{
		Params: p,
		M:      make([]float32, len(params)),
		V:      make([]float32, len(params)),
	}
}

// Len returns the parameter count.
func (s *State) Len() int { return len(s.Params) }

// checkLens panics on inconsistent state (always a bug).
func (s *State) checkLens(gradLen int) {
	if len(s.M) != len(s.Params) || len(s.V) != len(s.Params) || gradLen != len(s.Params) {
		panic(fmt.Sprintf("optim: inconsistent lengths p=%d m=%d v=%d g=%d",
			len(s.Params), len(s.M), len(s.V), gradLen))
	}
}

// stepRange applies Adam to indices [lo,hi) with the step-t bias
// correction factors precomputed. grad is accessed through g(i) so the
// same kernel serves the FP32 and delayed-FP16 paths.
func stepRange(s *State, h Hyper, c1, c2 float64, lo, hi int, g func(i int) float32) {
	lr := float32(h.LR)
	b1 := float32(h.Beta1)
	b2 := float32(h.Beta2)
	omb1 := float32(1 - h.Beta1)
	omb2 := float32(1 - h.Beta2)
	eps := float32(h.Eps)
	wd := float32(h.WeightDecay)
	ic1 := float32(1 / c1)
	ic2 := float32(1 / c2)
	for i := lo; i < hi; i++ {
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

func sqrt32(x float32) float32 { return float32(math.Sqrt(float64(x))) }

// biasCorrections returns 1-beta1^t and 1-beta2^t for step t (t >= 1).
func biasCorrections(h Hyper, t int) (float64, float64) {
	if t < 1 {
		panic("optim: step must be >= 1")
	}
	return 1 - math.Pow(h.Beta1, float64(t)), 1 - math.Pow(h.Beta2, float64(t))
}

// StepFP32 applies one Adam step for step number t (1-based) using FP32
// gradients.
func StepFP32(s *State, grads []float32, h Hyper, t int) {
	s.checkLens(len(grads))
	c1, c2 := biasCorrections(h, t)
	stepRange(s, h, c1, c2, 0, s.Len(), func(i int) float32 { return grads[i] })
}

// StepFP16 applies one Adam step using FP16 gradients, widening each value
// on the fly (delayed in-place mixed-precision conversion). The results are
// identical to widening into a temporary FP32 buffer and calling StepFP32.
func StepFP16(s *State, grads []fp16.Bits, h Hyper, t int) {
	s.checkLens(len(grads))
	c1, c2 := biasCorrections(h, t)
	stepRange(s, h, c1, c2, 0, s.Len(), func(i int) float32 { return fp16.ToFloat32(grads[i]) })
}

// Runner abstracts a shared kernel worker pool (internal/kernpool's
// Pool implements it): Run executes fn over [0, n) split into
// deterministic chunks whose boundaries do not depend on the worker
// count. The Step...On variants draw intra-subgroup parallelism from it
// instead of spawning per-call goroutines, so one engine-wide pool
// bounds total kernel parallelism across all concurrent update workers.
type Runner interface {
	Run(n int, fn func(lo, hi int))
}

// StepFP32On is StepFP32 fanned across the runner's workers. A nil
// runner runs serially. Chunking never changes results: every element's
// update is independent, so the outcome is bit-identical to StepFP32 at
// any pool size.
func StepFP32On(r Runner, s *State, grads []float32, h Hyper, t int) {
	s.checkLens(len(grads))
	c1, c2 := biasCorrections(h, t)
	run(r, s.Len(), func(lo, hi int) {
		stepRange(s, h, c1, c2, lo, hi, func(i int) float32 { return grads[i] })
	})
}

// StepFP16On is StepFP16 fanned across the runner's workers, widening
// each FP16 gradient on the fly. Bit-identical to StepFP16 at any pool
// size (see StepFP32On).
func StepFP16On(r Runner, s *State, grads []fp16.Bits, h Hyper, t int) {
	s.checkLens(len(grads))
	c1, c2 := biasCorrections(h, t)
	run(r, s.Len(), func(lo, hi int) {
		stepRange(s, h, c1, c2, lo, hi, func(i int) float32 { return fp16.ToFloat32(grads[i]) })
	})
}

// run dispatches through the runner, or inline when it is nil. A typed
// nil inside a non-nil interface is the runner's own problem —
// kernpool.Pool's methods accept a nil receiver.
func run(r Runner, n int, fn func(lo, hi int)) {
	if r == nil {
		fn(0, n)
		return
	}
	r.Run(n, fn)
}

// GradNorm returns the L2 norm of an FP32 gradient buffer, used for the
// overflow/clipping checks mixed-precision training performs.
func GradNorm(grads []float32) float64 {
	var sum float64
	for _, g := range grads {
		sum += float64(g) * float64(g)
	}
	return math.Sqrt(sum)
}

// HasOverflow reports whether any FP16 gradient is NaN or Inf — the loss
// scaling overflow check run before applying an update.
func HasOverflow(grads []fp16.Bits) bool {
	for _, g := range grads {
		if fp16.IsNaN(g) || fp16.IsInf(g) {
			return true
		}
	}
	return false
}
