package optim

import (
	"math"
	"strings"
	"testing"

	"github.com/datastates/mlpoffload/internal/fp16"
)

func finiteGrads(n int) []fp16.Bits {
	g := make([]fp16.Bits, n)
	for i := range g {
		g[i] = fp16.FromFloat32(0.01)
	}
	return g
}

func TestScalerBackoffOnOverflow(t *testing.T) {
	s := NewLossScaler()
	start := s.Scale()
	bad := append(finiteGrads(4), fp16.PositiveInfinity)
	if s.Check(bad) {
		t.Fatal("overflow step should be skipped")
	}
	if s.Scale() != start/2 {
		t.Errorf("scale = %g, want %g", s.Scale(), start/2)
	}
	if s.Overflows() != 1 || s.SkippedSteps() != 1 {
		t.Errorf("counters = %d/%d", s.Overflows(), s.SkippedSteps())
	}
}

func TestScalerGrowthAfterWindow(t *testing.T) {
	s := NewLossScaler()
	s.window = 3
	start := s.Scale()
	g := finiteGrads(4)
	for i := 0; i < 3; i++ {
		if !s.Check(g) {
			t.Fatal("finite grads should pass")
		}
	}
	if s.Scale() != start*2 {
		t.Errorf("scale = %g, want %g", s.Scale(), start*2)
	}
	if s.GoodSteps() != 3 {
		t.Errorf("good steps = %d", s.GoodSteps())
	}
}

func TestScalerOverflowResetsWindow(t *testing.T) {
	s := NewLossScaler()
	s.window = 2
	g := finiteGrads(2)
	s.Check(g)                                                             // 1 clean
	s.Check(append(finiteGrads(1), fp16.FromFloat32(float32(math.NaN())))) // overflow
	s.Check(g)                                                             // 1 clean again — must NOT grow yet
	start := s.Scale()
	s.Check(g) // second clean -> grows now
	if s.Scale() != start*2 {
		t.Error("window did not reset after overflow")
	}
}

func TestScalerBounds(t *testing.T) {
	s := NewLossScaler()
	bad := []fp16.Bits{fp16.PositiveInfinity}
	for i := 0; i < 64; i++ {
		s.Check(bad)
	}
	if s.Scale() < 1 {
		t.Errorf("scale fell below minimum: %g", s.Scale())
	}
	s2 := NewLossScaler()
	s2.window = 1
	g := finiteGrads(1)
	for i := 0; i < 64; i++ {
		s2.Check(g)
	}
	if s2.Scale() > math.Pow(2, 24) {
		t.Errorf("scale exceeded maximum: %g", s2.Scale())
	}
}

func TestScalerString(t *testing.T) {
	if !strings.Contains(NewLossScaler().String(), "scale=65536") {
		t.Error("String malformed")
	}
}

func TestGlobalGradNorm(t *testing.T) {
	// Partial norms 3 and 4 combine to 5.
	if got := GlobalGradNorm([]float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Errorf("global norm = %v", got)
	}
	if GlobalGradNorm(nil) != 0 {
		t.Error("empty global norm should be 0")
	}
	// Consistency: splitting a buffer into subgroups must not change the
	// global norm (the clipping-is-global, update-is-local property the
	// engine relies on).
	full := []float32{1, 2, 3, 4, 5, 6}
	whole := GradNorm(full)
	parts := GlobalGradNorm([]float64{GradNorm(full[:2]), GradNorm(full[2:5]), GradNorm(full[5:])})
	if math.Abs(whole-parts) > 1e-6 {
		t.Errorf("split norm %v != whole %v", parts, whole)
	}
}
