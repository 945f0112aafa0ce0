// Package f32view provides zero-copy views between []byte and []float32
// for the little-endian serialized layouts the offloading engine moves
// between host memory and storage tiers.
//
// The engine's premise is that the CPU-side update phase must keep pace
// with tier bandwidth; with compression shrinking wire time, the next
// bottleneck is CPU memory traffic — every scalar serialize/deserialize
// pass over a multi-megabyte subgroup is a full extra sweep of the
// buffer. On a little-endian machine the serialized FP32 payload *is*
// the in-memory float representation, so a correctly aligned []byte can
// be reinterpreted as []float32 in place (via unsafe.Slice) and the
// update kernel can run directly over the fetched bytes.
//
// The zero-copy view is a capability, not an assumption: Viewable
// reports whether a given buffer supports it (4-byte alignment, 4-byte
// multiple length, native little-endian), and the Decode/Encode bulk
// kernels — 8-wide unrolled scalar conversions — are the portable
// fallback that keeps unaligned buffers and big-endian hosts correct at
// full copy speed. Callers therefore branch once per buffer, never per
// element.
//
// Safety: a view aliases the byte buffer. Callers own the aliasing
// discipline — the buffer must stay live and unrecycled for as long as
// the view is reachable, and concurrent writers must be excluded the
// same way they would be for the byte slice itself.
package f32view

import (
	"math"
	"unsafe"
)

// nativeLittleEndian reports whether the host stores multi-byte values
// little-endian (amd64, arm64, riscv64, wasm — everything Go commonly
// targets except s390x). Detected once at init from a probe value, so
// the package needs no GOARCH list to stay correct.
var nativeLittleEndian = func() bool {
	probe := uint32(0x01020304)
	return *(*byte)(unsafe.Pointer(&probe)) == 0x04
}()

// NativeLittleEndian reports whether zero-copy views are representation
// compatible with the on-wire (little-endian) layout on this host.
func NativeLittleEndian() bool { return nativeLittleEndian }

// Aligned reports whether b's backing array starts on a 4-byte boundary.
// An empty slice is trivially aligned.
func Aligned(b []byte) bool {
	if len(b) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&b[0]))&3 == 0
}

// Viewable reports whether View can reinterpret b in place: native
// little-endian byte order, a length that is a whole number of float32s,
// and a 4-byte-aligned base address.
func Viewable(b []byte) bool {
	return nativeLittleEndian && len(b)&3 == 0 && Aligned(b)
}

// View reinterprets b as a []float32 sharing b's memory. It returns
// ok=false (and a nil slice) when the buffer is not Viewable; callers
// then fall back to the Decode/Encode copying kernels. The returned
// slice aliases b: it is valid exactly as long as b is, and writes
// through either are visible through both.
func View(b []byte) ([]float32, bool) {
	if !Viewable(b) {
		return nil, false
	}
	if len(b) == 0 {
		return nil, true
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4), true
}

// Decode converts len(dst) little-endian float32s from src into dst.
// src must hold at least 4*len(dst) bytes. On viewable buffers it is a
// single bulk copy; otherwise an 8-wide unrolled byte-assembling loop.
// Both paths produce bit-identical results.
func Decode(dst []float32, src []byte) {
	n := len(dst)
	_ = src[:4*n] // one bounds check for the whole kernel
	if v, ok := View(src[:4*n]); ok {
		copy(dst, v)
		return
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := src[4*i : 4*i+32 : 4*i+32]
		d[0] = math.Float32frombits(uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24)
		d[1] = math.Float32frombits(uint32(s[4]) | uint32(s[5])<<8 | uint32(s[6])<<16 | uint32(s[7])<<24)
		d[2] = math.Float32frombits(uint32(s[8]) | uint32(s[9])<<8 | uint32(s[10])<<16 | uint32(s[11])<<24)
		d[3] = math.Float32frombits(uint32(s[12]) | uint32(s[13])<<8 | uint32(s[14])<<16 | uint32(s[15])<<24)
		d[4] = math.Float32frombits(uint32(s[16]) | uint32(s[17])<<8 | uint32(s[18])<<16 | uint32(s[19])<<24)
		d[5] = math.Float32frombits(uint32(s[20]) | uint32(s[21])<<8 | uint32(s[22])<<16 | uint32(s[23])<<24)
		d[6] = math.Float32frombits(uint32(s[24]) | uint32(s[25])<<8 | uint32(s[26])<<16 | uint32(s[27])<<24)
		d[7] = math.Float32frombits(uint32(s[28]) | uint32(s[29])<<8 | uint32(s[30])<<16 | uint32(s[31])<<24)
	}
	for ; i < n; i++ {
		s := src[4*i : 4*i+4 : 4*i+4]
		dst[i] = math.Float32frombits(uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24)
	}
}

// Encode converts len(src) float32s into their little-endian bytes in
// dst. dst must hold at least 4*len(src) bytes. On viewable buffers it
// is a single bulk copy; otherwise an 8-wide unrolled store loop.
func Encode(dst []byte, src []float32) {
	n := len(src)
	_ = dst[:4*n]
	if v, ok := View(dst[:4*n]); ok {
		copy(v, src)
		return
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[4*i : 4*i+32 : 4*i+32]
		put4(d[0:4], math.Float32bits(s[0]))
		put4(d[4:8], math.Float32bits(s[1]))
		put4(d[8:12], math.Float32bits(s[2]))
		put4(d[12:16], math.Float32bits(s[3]))
		put4(d[16:20], math.Float32bits(s[4]))
		put4(d[20:24], math.Float32bits(s[5]))
		put4(d[24:28], math.Float32bits(s[6]))
		put4(d[28:32], math.Float32bits(s[7]))
	}
	for ; i < n; i++ {
		put4(dst[4*i:4*i+4], math.Float32bits(src[i]))
	}
}

func put4(d []byte, u uint32) {
	_ = d[3]
	d[0] = byte(u)
	d[1] = byte(u >> 8)
	d[2] = byte(u >> 16)
	d[3] = byte(u >> 24)
}
