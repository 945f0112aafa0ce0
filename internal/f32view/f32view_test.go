package f32view

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// refEncode/refDecode are the obviously correct scalar references the
// kernels are compared against.
func refEncode(dst []byte, src []float32) {
	for i, f := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(f))
	}
}

func refDecode(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// testValues covers normals, denormals, zeros, infs and NaNs — every
// bit pattern class a bit-identity claim must survive.
func testValues(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		switch i % 7 {
		case 0:
			out[i] = float32(rng.NormFloat64())
		case 1:
			out[i] = math.Float32frombits(rng.Uint32()) // any bit pattern, NaNs included
		case 2:
			out[i] = 0
		case 3:
			out[i] = float32(math.Copysign(0, -1))
		case 4:
			out[i] = float32(math.Inf(1))
		case 5:
			out[i] = math.Float32frombits(1) // smallest denormal
		default:
			out[i] = -65504.0
		}
	}
	return out
}

func TestViewRoundTrip(t *testing.T) {
	if !NativeLittleEndian() {
		t.Skip("big-endian host: zero-copy views disabled by design")
	}
	src := testValues(1031, 1)
	buf := make([]byte, 4*len(src))
	refEncode(buf, src)

	v, ok := View(buf)
	if !ok {
		t.Fatalf("aligned buffer not viewable")
	}
	if len(v) != len(src) {
		t.Fatalf("view len %d, want %d", len(v), len(src))
	}
	for i := range src {
		if math.Float32bits(v[i]) != math.Float32bits(src[i]) {
			t.Fatalf("view[%d] = %x, want %x", i, math.Float32bits(v[i]), math.Float32bits(src[i]))
		}
	}
	// The view aliases: a write through it must land in the bytes.
	v[7] = 42
	if got := math.Float32frombits(binary.LittleEndian.Uint32(buf[28:])); got != 42 {
		t.Fatalf("write through view not visible in bytes: %v", got)
	}
}

func TestViewableRejectsMisalignment(t *testing.T) {
	raw := make([]byte, 4*16+1)
	aligned := raw
	if !Aligned(aligned) {
		aligned = raw[1:] // whichever of the two is aligned
	}
	if !NativeLittleEndian() {
		if Viewable(aligned[:64]) {
			t.Fatal("big-endian host must never report Viewable")
		}
		return
	}
	if !Viewable(aligned[:64]) {
		t.Fatal("aligned 64-byte buffer should be viewable")
	}
	unaligned := aligned[1 : 1+60] // base off by one byte, len%4==0
	if Aligned(unaligned) {
		t.Fatal("test construction broken: expected unaligned slice")
	}
	if Viewable(unaligned) {
		t.Fatal("unaligned buffer must not be viewable")
	}
	if _, ok := View(unaligned); ok {
		t.Fatal("View must refuse unaligned buffers")
	}
	if Viewable(aligned[:63]) {
		t.Fatal("length not a multiple of 4 must not be viewable")
	}
}

func TestViewEmpty(t *testing.T) {
	if v, ok := View(nil); !ok || v != nil {
		if NativeLittleEndian() {
			t.Fatalf("empty view: got %v, %v", v, ok)
		}
	}
}

// TestDecodeEncodeParity checks the bulk kernels against the scalar
// reference on aligned AND deliberately misaligned buffers (the
// misaligned case forces the 8-wide unrolled fallback on little-endian
// hosts, and is the only path on big-endian ones), across lengths that
// exercise the unroll remainder.
func TestDecodeEncodeParity(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 1000, 1031} {
		src := testValues(n, int64(n)+2)
		want := make([]byte, 4*n)
		refEncode(want, src)

		for _, off := range []int{0, 1, 2, 3} {
			raw := make([]byte, 4*n+8)
			base := raw
			if !Aligned(base) {
				base = raw[1:]
			}
			buf := base[off : off+4*n]

			Encode(buf, src)
			if !bytes.Equal(buf, want) {
				t.Fatalf("n=%d off=%d: Encode mismatch", n, off)
			}

			got := make([]float32, n)
			Decode(got, buf)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(src[i]) {
					t.Fatalf("n=%d off=%d: Decode[%d] = %x, want %x",
						n, off, i, math.Float32bits(got[i]), math.Float32bits(src[i]))
				}
			}
		}
	}
}

func TestDecodeShortSourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Decode over a short source must panic, not read out of bounds")
		}
	}()
	dst := make([]float32, 4)
	Decode(dst, make([]byte, 15))
}

func TestViewAliasBounds(t *testing.T) {
	if !NativeLittleEndian() {
		t.Skip("views disabled on big-endian hosts")
	}
	buf := make([]byte, 64)
	v, ok := View(buf)
	if !ok {
		t.Skip("allocator returned an unaligned buffer")
	}
	lo := uintptr(unsafe.Pointer(&buf[0]))
	hi := lo + uintptr(len(buf))
	vlo := uintptr(unsafe.Pointer(&v[0]))
	vhi := vlo + uintptr(len(v))*4
	if vlo < lo || vhi > hi {
		t.Fatalf("view [%x,%x) escapes buffer [%x,%x)", vlo, vhi, lo, hi)
	}
}

func BenchmarkDecode(b *testing.B) {
	const n = 1 << 20
	src := make([]byte, 4*n)
	dst := make([]float32, n)
	b.SetBytes(4 * n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Decode(dst, src)
	}
}

func BenchmarkDecodeUnaligned(b *testing.B) {
	const n = 1 << 20
	raw := make([]byte, 4*n+8)
	src := raw[:4*n]
	if Aligned(src) {
		src = raw[1 : 1+4*n]
	}
	dst := make([]float32, n)
	b.SetBytes(4 * n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Decode(dst, src)
	}
}

func BenchmarkEncode(b *testing.B) {
	const n = 1 << 20
	src := make([]float32, n)
	dst := make([]byte, 4*n)
	b.SetBytes(4 * n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(dst, src)
	}
}
