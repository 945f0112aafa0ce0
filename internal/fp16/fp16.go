// Package fp16 implements IEEE-754 binary16 (half precision) conversion.
//
// Mixed-precision training keeps the working copy of model parameters and
// the gradients in FP16 while the optimizer operates on FP32 master state.
// MLP-Offload's "delayed in-place gradient conversion" design principle
// depends on converting FP16 gradient buffers to FP32 on the fly during the
// update phase instead of flushing pre-upscaled FP32 gradients to disk, so
// the conversion throughput of this package is on the critical path of the
// update kernel.
//
// The package provides scalar conversions, bulk slice conversions, a
// chunk-parallel variant for large buffers, and a fused
// convert-and-accumulate used by gradient accumulation.
package fp16

import (
	"math"
	"sync"
)

// Bits is a raw IEEE-754 binary16 value. The zero value is +0.0.
type Bits uint16

const (
	signMask16     = 0x8000
	expMask16      = 0x7C00
	fracMask16     = 0x03FF
	expBias16      = 15
	expBias32      = 127
	maxFinite16    = 65504.0
	smallestNorm16 = 6.103515625e-05 // 2^-14
)

// PositiveInfinity and NegativeInfinity are the binary16 infinities.
const (
	PositiveInfinity Bits = 0x7C00
	NegativeInfinity Bits = 0xFC00
)

// FromFloat32 converts an FP32 value to the nearest binary16 value using
// round-to-nearest-even, the rounding mode used by hardware mixed-precision
// units. Values whose magnitude exceeds the largest finite half (65504)
// become infinities; subnormal halves are produced for tiny values.
func FromFloat32(f float32) Bits {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & signMask16
	exp := int32(b>>23) & 0xFF
	frac := b & 0x7FFFFF

	switch {
	case exp == 0xFF: // Inf or NaN
		if frac != 0 {
			// Quiet NaN; preserve a payload bit so NaN-ness survives.
			return Bits(sign | expMask16 | 0x0200 | uint16(frac>>13))
		}
		return Bits(sign | expMask16)
	case exp == 0 && frac == 0: // signed zero
		return Bits(sign)
	}

	// Unbiased exponent of the FP32 value.
	e := exp - expBias32

	if e > 15 { // overflow to infinity
		return Bits(sign | expMask16)
	}

	if e >= -14 {
		// Normal half. Keep 10 fraction bits, round to nearest even on the
		// 13 discarded bits.
		he := uint16(e+expBias16) << 10
		hf := uint16(frac >> 13)
		rem := frac & 0x1FFF
		half := uint32(0x1000)
		if rem > half || (rem == half && hf&1 == 1) {
			hf++
			if hf == 0x400 { // fraction overflowed into exponent
				hf = 0
				he += 1 << 10
				if he >= expMask16 {
					return Bits(sign | expMask16)
				}
			}
		}
		return Bits(sign | he | hf)
	}

	// Subnormal half or underflow to zero. The implicit leading 1 of the
	// FP32 significand becomes explicit.
	if e < -25 {
		return Bits(sign) // underflows to signed zero even after rounding
	}
	sig := frac | 0x800000 // 24-bit significand with explicit leading 1
	// Subnormal half = hf * 2^-24 with hf < 1024, so hf = sig * 2^(e+1),
	// i.e. shift right by -(e+1). e in [-25,-15] -> shift in [14,24].
	shift := uint32(-(e + 1))
	hf := uint16(sig >> shift)
	rem := sig & ((1 << shift) - 1)
	half := uint32(1) << (shift - 1)
	if rem > half || (rem == half && hf&1 == 1) {
		hf++
		// hf may round up into the smallest normal (0x400); the bit layout
		// already encodes that correctly: exponent field becomes 1.
	}
	return Bits(sign | hf)
}

// ToFloat32 converts a binary16 value to FP32 exactly (every half value is
// representable in single precision).
func ToFloat32(h Bits) float32 {
	sign := uint32(h&signMask16) << 16
	exp := uint32(h&expMask16) >> 10
	frac := uint32(h & fracMask16)

	switch exp {
	case 0:
		if frac == 0 {
			return math.Float32frombits(sign) // signed zero
		}
		// Subnormal half: value = frac * 2^-24. Normalize into FP32.
		e := int32(-14 - 1) // will be incremented as we shift
		for frac&0x400 == 0 {
			frac <<= 1
			e--
		}
		frac &= fracMask16
		return math.Float32frombits(sign | uint32(e+1+expBias32)<<23 | frac<<13)
	case 0x1F:
		if frac == 0 {
			return math.Float32frombits(sign | 0x7F800000) // Inf
		}
		return math.Float32frombits(sign | 0x7F800000 | frac<<13 | 0x400000) // NaN
	default:
		return math.Float32frombits(sign | (exp-expBias16+expBias32)<<23 | frac<<13)
	}
}

// IsNaN reports whether h encodes a NaN.
func IsNaN(h Bits) bool {
	return h&expMask16 == expMask16 && h&fracMask16 != 0
}

// IsInf reports whether h encodes an infinity of either sign.
func IsInf(h Bits) bool {
	return h&expMask16 == expMask16 && h&fracMask16 == 0
}

// The bulk kernels below run over every gradient element every
// iteration (the backward pass's gradient narrowing, the baseline's
// gradient widening), so they are built from two pieces:
//
//   - an *inlinable* fast path (ToFloat32Fast / FromFloat32Fast) for the
//     dominant case — normal halves — because the full scalar
//     conversions exceed the compiler's inlining budget and would cost a
//     function call per element. Both are exported so other per-element
//     loops (the fused Adam step in internal/optim, gradient clipping)
//     share the same bit tricks;
//   - 8-wide unrolling with full-slice re-slicing, so the bounds check
//     is paid once per block and the eight conversions are independent.
//
// Values outside the fast range (zeros, subnormals, infinities, NaNs)
// fall back to the scalar functions, keeping every kernel bit-identical
// to the element-at-a-time loop — the parity tests pin that across
// random bit patterns.

// ToFloat32Fast widens a *normal* half (exponent in [1,30]) with the
// contiguous-field rebias: exp/frac sit adjacent in both formats, so
// (h&0x7FFF)<<13 + (112<<23) re-biases the exponent (15→127) and
// places the fraction in one add. ok=false for zero/subnormal/Inf/NaN,
// where the caller falls back to ToFloat32:
//
//	f, ok := fp16.ToFloat32Fast(h)
//	if !ok {
//		f = fp16.ToFloat32(h)
//	}
func ToFloat32Fast(h Bits) (float32, bool) {
	u := uint32(h)
	if e := u & expMask16; e == 0 || e == expMask16 {
		return 0, false
	}
	return math.Float32frombits((u&signMask16)<<16 | ((u&0x7FFF)<<13 + 0x38000000)), true
}

// FromFloat32Fast narrows an FP32 value whose magnitude lies in the
// normal-half range [2^-14, 2^16): the adjacent exp/frac fields make
// rounding one add — 0xFFF plus the round-to-odd bit implements exact
// round-to-nearest-even on the 13 discarded bits, with the carry
// propagating into the exponent (and into infinity at the top, which is
// the correct overflow result). ok=false outside the range — including
// values just below 2^-14 that might round *up* into it, which the
// scalar slow path handles identically. Callers fall back to
// FromFloat32 when ok is false, exactly as with ToFloat32Fast.
func FromFloat32Fast(f float32) (Bits, bool) {
	b := math.Float32bits(f)
	abs := b & 0x7FFFFFFF
	if abs-0x38800000 >= 0x47800000-0x38800000 {
		return 0, false
	}
	h := (abs + 0xFFF + (abs>>13)&1 - 0x38000000) >> 13
	return Bits(uint16(b>>16)&signMask16 | uint16(h)), true
}

// Encode converts src into dst as binary16. dst must be at least len(src)
// long; the number of converted elements is returned.
func Encode(dst []Bits, src []float32) int {
	n := min(len(dst), len(src))
	encodeRange(dst, src, 0, n)
	return n
}

// encodeRange is the 8-wide unrolled encode kernel over [lo,hi).
func encodeRange(dst []Bits, src []float32, lo, hi int) {
	i := lo
	for ; i+8 <= hi; i += 8 {
		d := dst[i : i+8 : i+8]
		s := src[i : i+8 : i+8]
		for j, f := range s {
			if h, ok := FromFloat32Fast(f); ok {
				d[j] = h
			} else {
				d[j] = FromFloat32(f)
			}
		}
	}
	for ; i < hi; i++ {
		if h, ok := FromFloat32Fast(src[i]); ok {
			dst[i] = h
		} else {
			dst[i] = FromFloat32(src[i])
		}
	}
}

// Decode converts src into dst as float32. dst must be at least len(src)
// long; the number of converted elements is returned.
func Decode(dst []float32, src []Bits) int {
	n := min(len(dst), len(src))
	decodeRange(dst, src, 0, n)
	return n
}

// decodeRange is the 8-wide unrolled decode kernel over [lo,hi).
func decodeRange(dst []float32, src []Bits, lo, hi int) {
	i := lo
	for ; i+8 <= hi; i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		_ = d[7]
		for j := 0; j < 8; j++ {
			h := s[j]
			if f, ok := ToFloat32Fast(h); ok {
				d[j] = f
			} else {
				d[j] = ToFloat32(h)
			}
		}
	}
	for ; i < hi; i++ {
		if f, ok := ToFloat32Fast(src[i]); ok {
			dst[i] = f
		} else {
			dst[i] = ToFloat32(src[i])
		}
	}
}

// DecodeAccumulate adds the FP32 widening of src element-wise into dst,
// the fused kernel used by gradient accumulation (grads arrive in FP16 and
// are accumulated into an FP32 buffer without a temporary).
func DecodeAccumulate(dst []float32, src []Bits) int {
	n := min(len(dst), len(src))
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := src[i : i+8 : i+8]
		for j, h := range s {
			if f, ok := ToFloat32Fast(h); ok {
				d[j] += f
			} else {
				d[j] += ToFloat32(h)
			}
		}
	}
	for ; i < n; i++ {
		if f, ok := ToFloat32Fast(src[i]); ok {
			dst[i] += f
		} else {
			dst[i] += ToFloat32(src[i])
		}
	}
	return n
}

// Runner abstracts a shared kernel worker pool (internal/kernpool's
// Pool implements it; see optim.Runner): Run executes fn over [0, n) in
// deterministic chunks. The ...On bulk-codec variants draw parallelism
// from it instead of spawning per-call goroutines, so the engine's one
// pool bounds conversion parallelism alongside the Adam kernels.
type Runner interface {
	Run(n int, fn func(lo, hi int))
}

// codec is one bulk conversion between h and f. fn is the chunk callback
// handed to the Runner, bound once when the codec is made, so a pooled
// conversion builds no closure per call.
type codec struct {
	h      []Bits
	f      []float32
	encode bool
	fn     func(lo, hi int)
}

var codecs = sync.Pool{New: func() any {
	c := new(codec)
	c.fn = c.run
	return c
}}

func (c *codec) run(lo, hi int) {
	if c.encode {
		encodeRange(c.h, c.f, lo, hi)
	} else {
		decodeRange(c.f, c.h, lo, hi)
	}
}

// runOn converts [0, n) between h and f through the runner, inline when
// it is nil.
func runOn(r Runner, n int, h []Bits, f []float32, encode bool) {
	c := codecs.Get().(*codec)
	c.h, c.f, c.encode = h, f, encode
	if r == nil {
		c.run(0, n)
	} else {
		r.Run(n, c.fn)
	}
	c.h, c.f = nil, nil
	codecs.Put(c)
}

// EncodeOn is Encode fanned across the runner's workers; bit-identical
// to Encode at any pool size (elements convert independently).
func EncodeOn(r Runner, dst []Bits, src []float32) int {
	n := min(len(dst), len(src))
	runOn(r, n, dst, src, true)
	return n
}

// DecodeOn is Decode fanned across the runner's workers; bit-identical
// to Decode at any pool size.
func DecodeOn(r Runner, dst []float32, src []Bits) int {
	n := min(len(dst), len(src))
	runOn(r, n, src, dst, false)
	return n
}
