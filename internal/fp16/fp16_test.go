package fp16

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/datastates/mlpoffload/internal/kernpool"
)

func TestKnownValues(t *testing.T) {
	cases := []struct {
		f float32
		h Bits
	}{
		{0, 0x0000},
		{float32(math.Copysign(0, -1)), 0x8000},
		{1, 0x3C00},
		{-1, 0xBC00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7BFF}, // max finite half
		{-65504, 0xFBFF},
		{65520, 0x7C00},                 // rounds up to +Inf
		{100000, 0x7C00},                // overflow -> +Inf
		{-100000, 0xFC00},               // overflow -> -Inf
		{6.103515625e-05, 0x0400},       // smallest normal
		{5.960464477539063e-08, 0x0001}, // smallest subnormal
		{float32(math.Inf(1)), 0x7C00},
		{float32(math.Inf(-1)), 0xFC00},
		{0.333251953125, 0x3555}, // 1/3 rounded to half
	}
	for _, c := range cases {
		if got := FromFloat32(c.f); got != c.h {
			t.Errorf("FromFloat32(%g) = %#04x, want %#04x", c.f, got, c.h)
		}
	}
}

func TestToFloat32KnownValues(t *testing.T) {
	cases := []struct {
		h Bits
		f float32
	}{
		{0x0000, 0},
		{0x3C00, 1},
		{0xBC00, -1},
		{0x7BFF, 65504},
		{0x0400, 6.103515625e-05},
		{0x0001, 5.960464477539063e-08},
		{0x03FF, 6.097555160522461e-05}, // largest subnormal
	}
	for _, c := range cases {
		if got := ToFloat32(c.h); got != c.f {
			t.Errorf("ToFloat32(%#04x) = %g, want %g", c.h, got, c.f)
		}
	}
	if !math.IsInf(float64(ToFloat32(0x7C00)), 1) {
		t.Error("0x7C00 should decode to +Inf")
	}
	if !math.IsInf(float64(ToFloat32(0xFC00)), -1) {
		t.Error("0xFC00 should decode to -Inf")
	}
	if !math.IsNaN(float64(ToFloat32(0x7E00))) {
		t.Error("0x7E00 should decode to NaN")
	}
}

func TestNegativeZero(t *testing.T) {
	nz := ToFloat32(0x8000)
	if nz != 0 || math.Signbit(float64(nz)) != true {
		t.Errorf("0x8000 should decode to -0, got %g (signbit %v)", nz, math.Signbit(float64(nz)))
	}
}

// TestRoundTripAllHalves exhaustively checks that every one of the 65536
// half values survives a decode/encode round trip (half -> float32 -> half).
func TestRoundTripAllHalves(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		h := Bits(i)
		f := ToFloat32(h)
		back := FromFloat32(f)
		if IsNaN(h) {
			if !IsNaN(back) {
				t.Fatalf("NaN %#04x did not round trip to NaN (got %#04x)", h, back)
			}
			continue
		}
		if back != h {
			t.Fatalf("half %#04x -> %g -> %#04x round trip failed", h, f, back)
		}
	}
}

// TestEncodeMatchesReference compares against an independent reference
// implementation based on float64 arithmetic (strconv-free, brute force
// nearest-even search over the decoded values of neighbouring halves).
func TestEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		var f float32
		switch i % 4 {
		case 0:
			f = (rng.Float32() - 0.5) * 2 // [-1, 1)
		case 1:
			f = (rng.Float32() - 0.5) * 131072 // spans overflow
		case 2:
			f = (rng.Float32() - 0.5) * 2e-4 // subnormal territory
		case 3:
			f = float32(math.Ldexp(float64(rng.Float32()), rng.Intn(40)-28))
		}
		got := FromFloat32(f)
		want := referenceEncode(f)
		if got != want {
			t.Fatalf("FromFloat32(%g) = %#04x, reference %#04x", f, got, want)
		}
	}
}

// referenceEncode finds the nearest half by scanning the two candidate
// halves around f (ties to even), using exact float64 arithmetic.
func referenceEncode(f float32) Bits {
	if math.IsNaN(float64(f)) {
		return 0x7E00
	}
	if f > maxHalfMid() {
		return PositiveInfinity
	}
	if f < -maxHalfMid() {
		return NegativeInfinity
	}
	// Binary search over the ordered non-negative halves.
	mag := f
	neg := math.Signbit(float64(f))
	if neg {
		mag = -mag
	}
	lo, hi := 0, 0x7C00 // [+0, +Inf]
	for lo < hi {
		mid := (lo + hi) / 2
		if float64(ToFloat32(Bits(mid))) < float64(mag) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is the first half >= mag; candidate below is lo-1.
	up := Bits(lo)
	var best Bits
	if lo == 0 {
		best = up
	} else {
		down := Bits(lo - 1)
		du := math.Abs(float64(ToFloat32(up)) - float64(mag))
		dd := math.Abs(float64(mag) - float64(ToFloat32(down)))
		switch {
		case dd < du:
			best = down
		case du < dd:
			best = up
		default: // tie: choose even significand
			if down&1 == 0 {
				best = down
			} else {
				best = up
			}
		}
	}
	if neg {
		best |= 0x8000
	}
	return best
}

// maxHalfMid is the midpoint between the largest finite half and the
// "next" half (which would be infinity); values at or above round to Inf
// (ties-to-even sends the exact midpoint to infinity since 0x7BFF is odd).
func maxHalfMid() float32 { return 65520 }

func TestEncodeOverflowBoundary(t *testing.T) {
	// 65519.996 is below the midpoint -> max finite; 65520 is the midpoint
	// and 0x7BFF has an odd significand, so ties-to-even rounds to Inf.
	if got := FromFloat32(65519.0); got != 0x7BFF {
		t.Errorf("65519 -> %#04x, want 0x7BFF", got)
	}
	if got := FromFloat32(65520.0); got != PositiveInfinity {
		t.Errorf("65520 -> %#04x, want +Inf", got)
	}
}

func TestPropertyMonotonic(t *testing.T) {
	// Encoding is monotonic: a <= b implies decode(encode(a)) <= decode(encode(b)).
	f := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		ea := ToFloat32(FromFloat32(a))
		eb := ToFloat32(FromFloat32(b))
		return ea <= eb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyErrorBound(t *testing.T) {
	// For values in the normal half range, relative round-trip error is
	// bounded by 2^-11 (half ulp of 10-bit significand).
	f := func(raw float32) bool {
		mag := math.Abs(float64(raw))
		if math.IsNaN(float64(raw)) || mag > maxFinite16 || mag < smallestNorm16 {
			return true
		}
		back := float64(ToFloat32(FromFloat32(raw)))
		rel := math.Abs(back-float64(raw)) / mag
		return rel <= 1.0/2048.0+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestSliceConversions(t *testing.T) {
	src := make([]float32, 1000)
	for i := range src {
		src[i] = float32(i)*0.25 - 100
	}
	hs := make([]Bits, len(src))
	if n := Encode(hs, src); n != len(src) {
		t.Fatalf("Encode returned %d, want %d", n, len(src))
	}
	out := make([]float32, len(src))
	if n := Decode(out, hs); n != len(src) {
		t.Fatalf("Decode returned %d, want %d", n, len(src))
	}
	for i := range src {
		if out[i] != ToFloat32(FromFloat32(src[i])) {
			t.Fatalf("slice conversion mismatch at %d", i)
		}
	}
}

func TestSliceLengthMismatch(t *testing.T) {
	src := []float32{1, 2, 3, 4}
	dst := make([]Bits, 2)
	if n := Encode(dst, src); n != 2 {
		t.Errorf("Encode with short dst = %d, want 2", n)
	}
	fdst := make([]float32, 3)
	if n := Decode(fdst, []Bits{0x3C00, 0x4000}); n != 2 {
		t.Errorf("Decode with short src = %d, want 2", n)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := make([]float32, 50000)
	for i := range src {
		src[i] = (rng.Float32() - 0.5) * 1000
	}
	serial := make([]Bits, len(src))
	par := make([]Bits, len(src))
	pool := kernpool.New(4)
	defer pool.Close()
	Encode(serial, src)
	EncodeOn(pool, par, src)
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("EncodeOn diverges at %d", i)
		}
	}
	ds := make([]float32, len(src))
	dp := make([]float32, len(src))
	Decode(ds, serial)
	DecodeOn(pool, dp, serial)
	for i := range ds {
		if ds[i] != dp[i] {
			t.Fatalf("DecodeOn diverges at %d", i)
		}
	}
}

func TestDecodeAccumulate(t *testing.T) {
	dst := []float32{1, 2, 3}
	src := []Bits{FromFloat32(0.5), FromFloat32(-1), FromFloat32(10)}
	if n := DecodeAccumulate(dst, src); n != 3 {
		t.Fatalf("n = %d", n)
	}
	want := []float32{1.5, 1, 13}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dst[%d] = %g, want %g", i, dst[i], want[i])
		}
	}
}

func TestIsNaNIsInf(t *testing.T) {
	if !IsNaN(FromFloat32(float32(math.NaN()))) {
		t.Error("NaN not detected")
	}
	if IsNaN(PositiveInfinity) || !IsInf(PositiveInfinity) || !IsInf(NegativeInfinity) {
		t.Error("Inf classification wrong")
	}
	if IsInf(FromFloat32(1)) || IsNaN(FromFloat32(1)) {
		t.Error("finite misclassified")
	}
}

func BenchmarkEncode(b *testing.B) {
	src := make([]float32, 1<<16)
	for i := range src {
		src[i] = float32(i) * 0.001
	}
	dst := make([]Bits, len(src))
	b.SetBytes(int64(len(src) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(dst, src)
	}
}

func BenchmarkDecode(b *testing.B) {
	src := make([]Bits, 1<<16)
	for i := range src {
		src[i] = Bits(i)
	}
	dst := make([]float32, len(src))
	b.SetBytes(int64(len(src) * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Decode(dst, src)
	}
}

func BenchmarkDecodeOn(b *testing.B) {
	src := make([]Bits, 1<<20)
	for i := range src {
		src[i] = Bits(i & 0x7BFF)
	}
	dst := make([]float32, len(src))
	pool := kernpool.New(runtime.GOMAXPROCS(0))
	defer pool.Close()
	b.SetBytes(int64(len(src) * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodeOn(pool, dst, src)
	}
}
