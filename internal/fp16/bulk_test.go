package fp16

import (
	"math"
	"math/rand"
	"testing"
)

// bulkValues mixes normals, denormal halves, infinities and NaNs so the
// unrolled kernels are checked across every conversion branch.
func bulkValues(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		switch i % 6 {
		case 0:
			out[i] = float32(rng.NormFloat64())
		case 1:
			out[i] = math.Float32frombits(rng.Uint32())
		case 2:
			out[i] = 1e-7 * float32(rng.Float64()) // subnormal half range
		case 3:
			out[i] = 70000 * float32(rng.Float64()) // overflow range
		case 4:
			out[i] = 0
		default:
			out[i] = float32(math.Inf(1))
		}
	}
	return out
}

// TestBulkKernelsMatchScalar pins the 8-wide unrolled kernels to the
// scalar conversions bit for bit, across lengths that exercise both the
// unrolled body and the remainder loop.
func TestBulkKernelsMatchScalar(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 16, 23, 1000, 1031} {
		src := bulkValues(n, int64(n))

		enc := make([]Bits, n)
		Encode(enc, src)
		for i := range enc {
			if want := FromFloat32(src[i]); enc[i] != want {
				t.Fatalf("n=%d Encode[%d] = %#x, want %#x", n, i, enc[i], want)
			}
		}

		dec := make([]float32, n)
		Decode(dec, enc)
		acc := make([]float32, n)
		for i := range acc {
			acc[i] = float32(i)
		}
		accGot := append([]float32(nil), acc...)
		DecodeAccumulate(accGot, enc)
		for i := range enc {
			want := ToFloat32(enc[i])
			if math.Float32bits(dec[i]) != math.Float32bits(want) {
				t.Fatalf("n=%d Decode[%d] = %x, want %x", n, i, math.Float32bits(dec[i]), math.Float32bits(want))
			}
			wantAcc := acc[i] + want
			if math.Float32bits(accGot[i]) != math.Float32bits(wantAcc) {
				t.Fatalf("n=%d DecodeAccumulate[%d] = %x, want %x", n, i, math.Float32bits(accGot[i]), math.Float32bits(wantAcc))
			}
		}
	}
}

const bulkBenchN = 1 << 20

func benchSrc16() []Bits {
	src := bulkValues(bulkBenchN, 42)
	enc := make([]Bits, bulkBenchN)
	Encode(enc, src)
	return enc
}

func BenchmarkDecodeAccumulate(b *testing.B) {
	enc := benchSrc16()
	dst := make([]float32, bulkBenchN)
	b.SetBytes(bulkBenchN * 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodeAccumulate(dst, enc)
	}
}

func BenchmarkEncodeBulk(b *testing.B) {
	src := bulkValues(bulkBenchN, 43)
	dst := make([]Bits, bulkBenchN)
	b.SetBytes(bulkBenchN * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(dst, src)
	}
}

func BenchmarkDecodeBulk(b *testing.B) {
	enc := benchSrc16()
	dst := make([]float32, bulkBenchN)
	b.SetBytes(bulkBenchN * 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Decode(dst, enc)
	}
}
