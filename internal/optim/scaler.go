package optim

import (
	"fmt"
	"math"

	"github.com/datastates/mlpoffload/internal/fp16"
)

// LossScaler implements dynamic loss scaling for FP16 mixed-precision
// training: the loss (and hence all gradients) is multiplied by a scale so
// small gradients survive the FP16 underflow threshold; when an overflow
// (Inf/NaN gradient) is detected the update is skipped and the scale
// halved; after a window of clean steps the scale doubles.
//
// This is the mechanism that made the one-step-delayed asynchronous update
// unsafe in ZeRO-Offload (a skipped step invalidates the overlapped
// compute), which is why MLP-Offload keeps updates synchronous and
// attacks I/O instead.
type LossScaler struct {
	scale     float64
	growth    float64
	backoff   float64
	window    int // clean steps before growing
	sinceGrow int
	maxScale  float64
	minScale  float64
	overflows int64
	skips     int64
	goodSteps int64
}

// NewLossScaler creates a scaler with the conventional defaults
// (initial 2^16, x2 growth every 2000 clean steps, x0.5 backoff).
func NewLossScaler() *LossScaler {
	return &LossScaler{
		scale:    65536,
		growth:   2,
		backoff:  0.5,
		window:   2000,
		maxScale: math.Pow(2, 24),
		minScale: 1,
	}
}

// Scale returns the current loss scale.
func (s *LossScaler) Scale() float64 { return s.scale }

// Overflows returns how many overflow events were observed.
func (s *LossScaler) Overflows() int64 { return s.overflows }

// SkippedSteps returns how many updates were skipped.
func (s *LossScaler) SkippedSteps() int64 { return s.skips }

// GoodSteps returns how many updates were applied.
func (s *LossScaler) GoodSteps() int64 { return s.goodSteps }

// Check inspects the FP16 gradients of one step. It returns true when the
// update should proceed (gradients finite), adjusting the scale either
// way. On overflow the caller must skip the optimizer step.
func (s *LossScaler) Check(grads []fp16.Bits) bool {
	if HasOverflow(grads) {
		s.overflows++
		s.skips++
		s.sinceGrow = 0
		s.scale *= s.backoff
		if s.scale < s.minScale {
			s.scale = s.minScale
		}
		return false
	}
	s.goodSteps++
	s.sinceGrow++
	if s.sinceGrow >= s.window {
		s.sinceGrow = 0
		s.scale *= s.growth
		if s.scale > s.maxScale {
			s.scale = s.maxScale
		}
	}
	return true
}

// ScalerState is the serializable snapshot of a LossScaler, persisted in
// checkpoint manifests so resumed training continues with the same
// dynamic scale and growth-window position.
type ScalerState struct {
	Scale     float64 `json:"scale"`
	SinceGrow int     `json:"sinceGrow"`
	Overflows int64   `json:"overflows"`
	Skips     int64   `json:"skips"`
	GoodSteps int64   `json:"goodSteps"`
}

// State snapshots the scaler for checkpointing.
func (s *LossScaler) State() ScalerState {
	return ScalerState{
		Scale:     s.scale,
		SinceGrow: s.sinceGrow,
		Overflows: s.overflows,
		Skips:     s.skips,
		GoodSteps: s.goodSteps,
	}
}

// SetState restores a snapshot taken by State. A non-positive scale is a
// corrupt snapshot and is rejected with an error — silently continuing
// on the default scale would diverge from the checkpointed run with no
// diagnostic.
func (s *LossScaler) SetState(st ScalerState) error {
	if st.Scale <= 0 {
		return fmt.Errorf("optim: scaler snapshot has non-positive scale %g", st.Scale)
	}
	s.scale = st.Scale
	s.sinceGrow = st.SinceGrow
	s.overflows = st.Overflows
	s.skips = st.Skips
	s.goodSteps = st.GoodSteps
	return nil
}

// String summarizes the scaler state.
func (s *LossScaler) String() string {
	return fmt.Sprintf("scale=%g good=%d skipped=%d overflows=%d",
		s.scale, s.goodSteps, s.skips, s.overflows)
}

// GlobalGradNorm combines per-subgroup norms into the global L2 norm:
// sqrt(sum of squares) — subgroup updates are independent but clipping is
// global, so the engine computes per-subgroup partial norms first.
func GlobalGradNorm(partialNorms []float64) float64 {
	var sum float64
	for _, n := range partialNorms {
		sum += n * n
	}
	return math.Sqrt(sum)
}
