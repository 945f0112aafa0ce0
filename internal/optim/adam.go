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
//
// Every variant runs one fused pass per element: widen the gradient (FP16
// path), update the parameter and both moments, and — in StepFP16To and
// StepFP32To — narrow the updated parameter into the FP16 working copy,
// so the engine makes one kernel call per subgroup and never re-reads
// the parameters to encode them. The loops are typed per gradient format
// and share one inlined per-element helper (coeffs.adam); the FP16
// conversions use fp16's inlinable fast paths. The pass is bit-identical
// to the plain per-element formula (pinned in fused_test.go), and the
// pooled variants allocate nothing per call.
package optim

import (
	"fmt"
	"math"
	"sync"

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

// coeffs are one step's hyperparameters and bias corrections, narrowed
// to float32 once per call.
type coeffs struct {
	lr, b1, b2, omb1, omb2, eps, wd, ic1, ic2 float32
}

// newCoeffs narrows h and the step-t bias corrections (t >= 1).
func newCoeffs(h Hyper, t int) coeffs {
	c1, c2 := biasCorrections(h, t)
	return coeffs{
		lr:   float32(h.LR),
		b1:   float32(h.Beta1),
		b2:   float32(h.Beta2),
		omb1: float32(1 - h.Beta1),
		omb2: float32(1 - h.Beta2),
		eps:  float32(h.Eps),
		wd:   float32(h.WeightDecay),
		ic1:  float32(1 / c1),
		ic2:  float32(1 / c2),
	}
}

// adam updates one element: it returns the new parameter and moments for
// parameter p, moments m and v, and gradient g. It is the only copy of
// the Adam arithmetic, small enough to inline into the typed loops below.
// Every float32 expression keeps its written shape and order (lr*mhat is
// not rewritten as (lr*ic1)*m): a reshaped expression rounds differently,
// and on FMA targets (arm64) the compiler fuses exactly the multiply-adds
// an expression spells, so either would change parameter bits and break
// every bit-identity pin.
func (c *coeffs) adam(p, m, v, g float32) (float32, float32, float32) {
	m = c.b1*m + c.omb1*g
	v = c.b2*v + c.omb2*g*g
	mhat := m * c.ic1
	vhat := v * c.ic2
	if c.wd != 0 {
		p -= c.lr * c.wd * p
	}
	return p - c.lr*mhat/(sqrt32(vhat)+c.eps), m, v
}

func sqrt32(x float32) float32 { return float32(math.Sqrt(float64(x))) }

// biasCorrections returns 1-beta1^t and 1-beta2^t for step t (t >= 1).
func biasCorrections(h Hyper, t int) (float64, float64) {
	if t < 1 {
		panic("optim: step must be >= 1")
	}
	return 1 - math.Pow(h.Beta1, float64(t)), 1 - math.Pow(h.Beta2, float64(t))
}

// job is one Step call's kernel: the state, exactly one of the gradient
// views, the optional FP16 output and the step's coefficients. fn is the
// chunk callback handed to the Runner, bound once when the job is made,
// so a pooled step builds no closure per call.
type job struct {
	c        coeffs
	s        *State
	g16      []fp16.Bits
	g32      []float32
	params16 []fp16.Bits
	fn       func(lo, hi int)
}

var jobs = sync.Pool{New: func() any {
	j := new(job)
	j.fn = j.run
	return j
}}

// run updates [lo,hi) with one typed loop per gradient format: each
// element is widened (FP16 path), updated and, when params16 is set,
// narrowed into the working copy in the same pass, both conversions by
// fp16's inlined fast paths with the scalar functions as fallback (the
// same per-element code as fp16.Decode and fp16.Encode). Re-slicing
// every view to the chunk's length lets the compiler drop the bounds
// checks on all but the optional output.
func (j *job) run(lo, hi int) {
	c := &j.c
	p := j.s.Params[lo:hi]
	m := j.s.M[lo:hi]
	m = m[:len(p)]
	v := j.s.V[lo:hi]
	v = v[:len(p)]
	var out []fp16.Bits
	if j.params16 != nil {
		out = j.params16[lo:hi]
	}
	if j.g16 != nil {
		g := j.g16[lo:hi]
		g = g[:len(p)]
		for i := range p {
			gi, ok := fp16.ToFloat32Fast(g[i])
			if !ok {
				gi = fp16.ToFloat32(g[i])
			}
			p[i], m[i], v[i] = c.adam(p[i], m[i], v[i], gi)
			if out != nil {
				h, ok := fp16.FromFloat32Fast(p[i])
				if !ok {
					h = fp16.FromFloat32(p[i])
				}
				out[i] = h
			}
		}
		return
	}
	g := j.g32[lo:hi]
	g = g[:len(p)]
	for i := range p {
		p[i], m[i], v[i] = c.adam(p[i], m[i], v[i], g[i])
		if out != nil {
			h, ok := fp16.FromFloat32Fast(p[i])
			if !ok {
				h = fp16.FromFloat32(p[i])
			}
			out[i] = h
		}
	}
}

// step checks the lengths and runs one job over the whole state, through
// r when it is non-nil, inline otherwise. Chunking never changes results:
// every element's update is independent, so the outcome is bit-identical
// at any pool size.
func step(r Runner, s *State, g16 []fp16.Bits, g32 []float32, params16 []fp16.Bits, h Hyper, t int) {
	gradLen := len(g32)
	if g16 != nil {
		gradLen = len(g16)
	}
	s.checkLens(gradLen)
	if params16 != nil && len(params16) != s.Len() {
		panic(fmt.Sprintf("optim: params16 length %d, want %d", len(params16), s.Len()))
	}
	j := jobs.Get().(*job)
	j.c, j.s, j.g16, j.g32, j.params16 = newCoeffs(h, t), s, g16, g32, params16
	if r == nil {
		j.run(0, s.Len())
	} else {
		r.Run(s.Len(), j.fn)
	}
	j.s, j.g16, j.g32, j.params16 = nil, nil, nil, nil
	jobs.Put(j)
}

// StepFP32 applies one Adam step for step number t (1-based) using FP32
// gradients.
func StepFP32(s *State, grads []float32, h Hyper, t int) {
	step(nil, s, nil, grads, nil, h, t)
}

// StepFP16 applies one Adam step using FP16 gradients, widening each value
// on the fly (delayed in-place mixed-precision conversion). The results are
// identical to widening into a temporary FP32 buffer and calling StepFP32.
func StepFP16(s *State, grads []fp16.Bits, h Hyper, t int) {
	step(nil, s, grads, nil, nil, h, t)
}

// Runner abstracts a shared kernel worker pool (internal/kernpool's
// Pool implements it): Run executes fn over [0, n) split into
// deterministic chunks whose boundaries do not depend on the worker
// count. The pooled Step variants draw intra-subgroup parallelism from
// it instead of spawning per-call goroutines, so one engine-wide pool
// bounds total kernel parallelism across all concurrent update workers.
type Runner interface {
	Run(n int, fn func(lo, hi int))
}

// StepFP16On is StepFP16 fanned across the runner's workers, widening
// each FP16 gradient on the fly. A nil runner runs serially; the result
// is bit-identical to StepFP16 at any pool size. A typed nil inside a
// non-nil interface is the runner's own problem — kernpool.Pool's
// methods accept a nil receiver.
func StepFP16On(r Runner, s *State, grads []fp16.Bits, h Hyper, t int) {
	step(r, s, grads, nil, nil, h, t)
}

// StepFP16To is StepFP16On that also narrows each updated master
// parameter into params16 (len == s.Len()), the FP16 working copy, in
// the same pass: params16 ends equal to fp16.Encode of s.Params, with no
// second pass over the parameters. A nil params16 is StepFP16On.
func StepFP16To(r Runner, s *State, grads []fp16.Bits, params16 []fp16.Bits, h Hyper, t int) {
	step(r, s, grads, nil, params16, h, t)
}

// StepFP32To is StepFP16To for FP32 gradients (the baseline path).
func StepFP32To(r Runner, s *State, grads []float32, params16 []fp16.Bits, h Hyper, t int) {
	step(r, s, nil, grads, params16, h, t)
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
