package model

import "testing"

func TestTable2Complete(t *testing.T) {
	cs := Table2()
	if len(cs) != 7 {
		t.Fatalf("Table2 has %d models, want 7", len(cs))
	}
	want := map[string]struct{ l, d, h int }{
		"40B":  {128, 5120, 40},
		"52B":  {64, 8192, 64},
		"70B":  {80, 8192, 64},
		"100B": {124, 8192, 64},
		"120B": {96, 10240, 80},
		"130B": {70, 12288, 96},
		"280B": {72, 16384, 128},
	}
	for _, c := range cs {
		w, ok := want[c.Name]
		if !ok {
			t.Errorf("unexpected model %s", c.Name)
			continue
		}
		if c.Layers != w.l || c.Hidden != w.d || c.Heads != w.h {
			t.Errorf("%s = (%d,%d,%d), want (%d,%d,%d)", c.Name, c.Layers, c.Hidden, c.Heads, w.l, w.d, w.h)
		}
	}
}

func TestNominalParamsPinned(t *testing.T) {
	c, err := ByName("40B")
	if err != nil {
		t.Fatal(err)
	}
	if c.Params() != 40e9 {
		t.Errorf("40B params = %d", c.Params())
	}
}

func TestDerivedParamsReasonable(t *testing.T) {
	// Without the nominal pin, the architecture-derived count should land
	// within 25% of the marketing size for every Table 2 model.
	for _, c := range Table2() {
		nominal := float64(c.Params())
		c.NominalParams = 0
		derived := float64(c.Params())
		ratio := derived / nominal
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("%s derived %.2fB vs nominal %.2fB (ratio %.2f)", c.Name, derived/1e9, nominal/1e9, ratio)
		}
	}
}

func TestSizing(t *testing.T) {
	c, _ := ByName("120B")
	s := c.Size()
	// Paper: "at 120B parameters, the optimizer state reaches 1.8 TB".
	optTB := float64(s.OptimStateBytes) / 1e12
	if optTB < 1.35 || optTB > 1.55 {
		// 120e9 * 12 = 1.44e12. With the baseline's FP32 gradients the
		// moved volume per iteration is 16 B/param = 1.92 TB, matching
		// the paper's "reaches 1.8 TB" framing (state + grads in flight).
		t.Errorf("120B optimizer state = %.2f TB", optTB)
	}
	total := float64(s.OptimStateBytes+s.FP32GradBytes) / 1e12
	if total < 1.8 || total > 2.0 {
		t.Errorf("120B optimizer+grad volume = %.2f TB, want ~1.9", total)
	}
	if s.BaselineFetchBytesPerParam != 16 || s.MLPFetchBytesPerParam != 12 {
		t.Errorf("fetch bytes/param = %d/%d, want 16/12", s.BaselineFetchBytesPerParam, s.MLPFetchBytesPerParam)
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error for unknown model")
	}
	if c, err := ByName("20B"); err != nil || c.Params() != 20e9 {
		t.Errorf("20B lookup failed: %v %v", c, err)
	}
}

func TestFLOPsPerToken(t *testing.T) {
	c, _ := ByName("40B")
	if got := c.FLOPsPerToken(); got != 2*40e9 {
		t.Errorf("FLOPs/token = %g", got)
	}
}
