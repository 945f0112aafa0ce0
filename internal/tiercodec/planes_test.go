package tiercodec

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/datastates/mlpoffload/internal/bufpool"
	"github.com/datastates/mlpoffload/internal/fp16"
	"github.com/datastates/mlpoffload/internal/optim"
	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/subgroup"
)

// adamState is a real serialized subgroup after two Adam steps — master
// parameters and both moments, the bytes the engine actually offloads.
func adamState(tb testing.TB, params int) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	sg := subgroup.New(0, params)
	for i := range sg.State.Params {
		sg.State.Params[i] = (rng.Float32() - 0.5) * 0.5
	}
	g := make([]float32, params)
	for step := 1; step <= 2; step++ {
		for i := range g {
			g[i] = (rng.Float32() - 0.5) * 0.02
		}
		fp16.Encode(sg.Grads16, g)
		optim.StepFP16(sg.State, sg.Grads16, optim.DefaultHyper(), step)
	}
	obj := make([]byte, subgroup.StateBytes(params))
	if _, err := sg.Marshal(obj, false); err != nil {
		tb.Fatal(err)
	}
	return obj
}

// initState is a never-updated serialized subgroup — initialized master
// parameters and zero moments, the object construction writes. The zero
// moments make every byte plane of it codable.
func initState(tb testing.TB, params int) []byte {
	tb.Helper()
	sg := subgroup.New(0, params)
	for i := range sg.State.Params {
		sg.State.Params[i] = float32(math.Sin(float64(i))) * 0.02
	}
	obj := make([]byte, subgroup.StateBytes(params))
	if _, err := sg.Marshal(obj, false); err != nil {
		tb.Fatal(err)
	}
	return obj
}

// codedPlanes counts the coded entries in a plane-split object's directory.
func codedPlanes(enc []byte) int {
	coded := 0
	for k := 0; k < int(enc[7]); k++ {
		if enc[HeaderSize+k*dirEntrySize+1] == planeCoded {
			coded++
		}
	}
	return coded
}

// fp16Payload is an FP16-dominant payload: half-precision values around
// a common scale.
func fp16Payload(n int) []byte {
	rng := rand.New(rand.NewSource(8))
	f := make([]float32, n)
	for i := range f {
		f[i] = float32(rng.NormFloat64() * 0.02)
	}
	h := make([]fp16.Bits, n)
	fp16.Encode(h, f)
	out := make([]byte, 2*n)
	for i, v := range h {
		binary.LittleEndian.PutUint16(out[2*i:], uint16(v))
	}
	return out
}

// TestPlanesRoundTripTable: every stride × length × payload kind writes
// and reads back bit-identically, never grows past one header, and lands
// on the codec id its bytes call for.
func TestPlanesRoundTripTable(t *testing.T) {
	ctx := context.Background()
	const big = 1 << 20
	sources := []struct {
		name   string
		data   []byte
		wantID func(stride, n int) int // -1: either
	}{
		{"zero", make([]byte, big), func(_, n int) int {
			if n < 64 {
				return -1
			}
			return int(CodecPlanes)
		}},
		{"random", randomPayload(big, 5), func(int, int) int { return int(CodecRaw) }},
		{"adam", adamState(t, big/12)[:big], func(stride, n int) int {
			if stride == 4 && n == big {
				return int(CodecPlanes)
			}
			return -1
		}},
		{"init", initState(t, big/12)[:big], func(_, n int) int {
			if n == big {
				return int(CodecPlanes)
			}
			return -1
		}},
		{"fp16", fp16Payload(big / 2), func(stride, n int) int {
			if stride == 2 && n == big {
				return int(CodecPlanes)
			}
			return -1
		}},
	}
	for _, stride := range []int{1, 2, 4, 8} {
		for _, n := range []int{0, stride - 1, 1000*stride + stride/2 + 1, big} {
			for _, src := range sources {
				name := fmt.Sprintf("stride%d/len%d/%s", stride, n, src.name)
				payload := src.data[:n]
				mem := storage.NewMemTier("mem")
				ct := mustTier(t, mem, Spec{Compression: "flate", Integrity: true, Stride: stride})
				if err := ct.Write(ctx, "k", payload); err != nil {
					t.Fatalf("%s: write: %v", name, err)
				}
				enc, err := mem.ReadObject(ctx, "k")
				if err != nil {
					t.Fatal(err)
				}
				if len(enc) > HeaderSize+n {
					t.Errorf("%s: %d encoded bytes exceed raw+header %d", name, len(enc), HeaderSize+n)
				}
				if want := src.wantID(stride, n); want >= 0 && int(enc[5]) != want {
					t.Errorf("%s: codec id %d, want %d", name, enc[5], want)
				}
				got := make([]byte, n)
				if err := ct.Read(ctx, "k", got); err != nil {
					t.Fatalf("%s: read: %v", name, err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatalf("%s: round trip mismatch", name)
				}
			}
		}
	}
}

// TestPlanesCodeOnlyTheExponentPlane pins the point of the format: on
// real FP32 optimizer state exactly one plane (sign/exponent) is coded,
// the three mantissa planes are stored raw, and the object still shrinks.
func TestPlanesCodeOnlyTheExponentPlane(t *testing.T) {
	ctx := context.Background()
	obj := adamState(t, 100_000)
	mem := storage.NewMemTier("mem")
	ct := mustTier(t, mem, Spec{Compression: "flate"})
	if err := ct.Write(ctx, "k", obj); err != nil {
		t.Fatal(err)
	}
	enc, _ := mem.ReadObject(ctx, "k")
	if enc[5] != CodecPlanes {
		t.Fatalf("codec id %d, want planes", enc[5])
	}
	n := len(obj) / 4
	for k := 0; k < 4; k++ {
		e := enc[HeaderSize+k*dirEntrySize:]
		plane, mode, size := e[0], e[1], int(binary.LittleEndian.Uint32(e[2:]))
		switch {
		case plane == 3 && (mode != planeCoded || size > n/2):
			t.Errorf("exponent plane: mode %d, %d of %d bytes", mode, size, n)
		case plane != 3 && (mode != planeRaw || size != n):
			t.Errorf("mantissa plane %d: mode %d, %d of %d bytes", plane, mode, size, n)
		}
	}
	if ratio := ct.CodecStats().WriteRatio; ratio < 1.15 {
		t.Errorf("write ratio %.3f, want >= 1.15", ratio)
	}
}

// TestPlanesTrainedObjectBytes pins the wire bytes of trained Adam state,
// which has one coded plane at stride 4 and at stride 2: how the encoder
// stages its planes must never change what it writes.
func TestPlanesTrainedObjectBytes(t *testing.T) {
	obj := adamState(t, 100_000)
	for _, tc := range []struct {
		spec Spec
		size int
		sha  string
	}{
		{Spec{Compression: "flate", Integrity: true}, 993338, "e13692dd5311df59c8fb54f187c60b64b88c6abfef934cd21cddaa5fbc4922df"},
		{Spec{Compression: "flate", Stride: 2}, 1048685, "7c11d2244eb8cd240d76f1599796fef71401f71fbc68ab17b2055249118f9f50"},
	} {
		enc := mustTier(t, storage.NewMemTier("mem"), tc.spec).Encode(obj)
		if enc[5] != CodecPlanes || codedPlanes(enc) != 1 {
			t.Fatalf("%v: codec id %d with %d coded planes, want planes with 1", tc.spec, enc[5], codedPlanes(enc))
		}
		sum := sha256.Sum256(enc)
		if len(enc) != tc.size || hex.EncodeToString(sum[:]) != tc.sha {
			t.Errorf("%v: encoded %d bytes, sha256 %x; want %d bytes, %s", tc.spec, len(enc), sum, tc.size, tc.sha)
		}
	}
}

// TestPlanesScratchIsOnePlane pins the codec's memory bound on the object
// that takes every multi-plane path, a never-updated one (four coded
// planes): with the collector off and the buffer pool empty, Encode
// allocates its output buffer and at most one plane more, and Decode at
// most one plane.
func TestPlanesScratchIsOnePlane(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under -race")
	}
	obj := initState(t, 300_000)
	ct := mustTier(t, storage.NewMemTier("mem"), Spec{Compression: "flate", Integrity: true})
	plane := 1 << bits.Len(uint(len(obj)/4-1)) // bufpool rounds up to a power of two
	const slack = 64 << 10                     // fixed-size bookkeeping
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocated := func(op func()) uint64 {
		runtime.GC() // two cycles empty the sync.Pool behind bufpool
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	var enc []byte
	got := allocated(func() { enc = ct.Encode(obj) })
	if enc[5] != CodecPlanes || codedPlanes(enc) != 4 {
		t.Fatalf("codec id %d with %d coded planes, want planes with 4", enc[5], codedPlanes(enc))
	}
	if limit := uint64(cap(enc) + plane + slack); got > limit {
		t.Errorf("Encode allocated %d B, limit is the %d B output buffer + one %d B plane", got, cap(enc), plane)
	}

	dst := make([]byte, len(obj))
	var err error
	got = allocated(func() { err = ct.Decode("k", enc, dst) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, obj) {
		t.Fatal("round trip mismatch")
	}
	if limit := uint64(plane + slack); got > limit {
		t.Errorf("Decode allocated %d B, limit is one %d B plane", got, plane)
	}
}

// TestLegacyFlateObjectsDecode: objects the previous writer produced
// (codec id 1, whole-object transpose + DEFLATE; committed as test data)
// decode bit-identically through tiers configured either way.
func TestLegacyFlateObjectsDecode(t *testing.T) {
	ctx := context.Background()
	want, err := os.ReadFile(filepath.Join("testdata", "id1.raw"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"id1-flate-crc.obj", "id1-flate9-s2.obj"} {
		obj, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if obj[5] != CodecFlate {
			t.Fatalf("%s: codec id %d, want 1", name, obj[5])
		}
		for _, spec := range []Spec{{Compression: "flate", Integrity: true}, {Integrity: true}, {Compression: "raw"}} {
			mem := storage.NewMemTier("mem")
			if err := mem.Write(ctx, "k", obj); err != nil {
				t.Fatal(err)
			}
			ct := mustTier(t, mem, spec)
			for round := 0; round < 2; round++ { // the second read reuses pooled inflate state
				got := make([]byte, len(want))
				if err := ct.Read(ctx, "k", got); err != nil {
					t.Fatalf("%s via %v: %v", name, spec, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s via %v: decoded bytes differ", name, spec)
				}
			}
			if size, err := ct.Size(ctx, "k"); err != nil || size != int64(len(want)) {
				t.Fatalf("%s via %v: Size = %d, %v", name, spec, size, err)
			}
		}
		// A flipped payload bit is ErrCorrupt, not garbage, with or
		// without a CRC: the legacy stream is still length-checked.
		obj[len(obj)/2] ^= 0x10
		mem := storage.NewMemTier("mem")
		if err := mem.Write(ctx, "k", obj); err != nil {
			t.Fatal(err)
		}
		err = mustTier(t, mem, Spec{Compression: "flate"}).Read(ctx, "k", make([]byte, len(want)))
		if obj[6]&flagCRC != 0 && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: flipped bit returned %v, want ErrCorrupt", name, err)
		}
	}
}

// TestPlanesCorruptDirectory: every way a plane directory can lie is
// ErrCorrupt before anything is decoded from it.
func TestPlanesCorruptDirectory(t *testing.T) {
	ctx := context.Background()
	obj := adamState(t, 20_000)
	mem := storage.NewMemTier("mem")
	ct := mustTier(t, mem, Spec{Compression: "flate"}) // no CRC: the structure checks are the backstop
	if err := ct.Write(ctx, "k", obj); err != nil {
		t.Fatal(err)
	}
	good, _ := mem.ReadObject(ctx, "k")
	const dir = HeaderSize
	cases := map[string]func(o []byte) []byte{
		"duplicate plane":   func(o []byte) []byte { o[dir+dirEntrySize] = o[dir]; return o },
		"plane past stride": func(o []byte) []byte { o[dir] = 4; return o },
		"unknown mode":      func(o []byte) []byte { o[dir+1] = 7; return o },
		"raw plane short":   func(o []byte) []byte { o[dir+2]--; return o },
		"body past payload": func(o []byte) []byte { binary.LittleEndian.PutUint32(o[dir+3*dirEntrySize+2:], 1<<31); return o },
		"stride 9":          func(o []byte) []byte { o[7] = 9; return o },
		"trailing bytes":    func(o []byte) []byte { return append(o, 0) },
		"coded table":       func(o []byte) []byte { o[len(o)-len(obj)/8] ^= 0xFF; return o[:len(o)-1] },
		"truncated":         func(o []byte) []byte { return o[:len(o)-100] },
	}
	for name, mutate := range cases {
		if err := mem.Write(ctx, "k", mutate(bytes.Clone(good))); err != nil {
			t.Fatal(err)
		}
		if err := ct.Read(ctx, "k", make([]byte, len(obj))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Read returned %v, want ErrCorrupt", name, err)
		}
		if _, err := ct.ReadObject(ctx, "k"); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: ReadObject returned %v, want ErrCorrupt", name, err)
		}
	}
}

// decodeHuff decodes a whole coded plane body into dst, block by block,
// and requires the body to end with the plane.
func decodeHuff(dst, body []byte) error {
	var d huffDecoder
	for len(dst) > 0 {
		blk := dst[:min(huffBlock, len(dst))]
		dst = dst[len(blk):]
		var err error
		if body, err = d.block(blk, body); err != nil {
			return err
		}
	}
	if len(body) != 0 {
		return errHuff
	}
	return nil
}

// TestHuffLengthLimit drives the coder with a histogram whose optimal
// code is deeper than huffMaxBits (Fibonacci weights) and with the
// one-symbol and two-symbol corners.
func TestHuffLengthLimit(t *testing.T) {
	fib := make([]byte, 0, huffBlock)
	for s, a, b := 0, 1, 1; len(fib) < huffBlock-100; s, a, b = s+1, b, a+b {
		fib = append(fib, bytes.Repeat([]byte{byte(s)}, min(a, huffBlock-100-len(fib)))...)
	}
	for name, plane := range map[string][]byte{
		"fibonacci": fib,
		"constant":  bytes.Repeat([]byte{0x3C}, 3*huffBlock+17),
		"two":       bytes.Repeat([]byte{1, 1, 1, 200}, 5000),
		"one byte":  {9},
	} {
		enc, ok := appendHuff(make([]byte, 0, 2*len(plane)+huffBlockHead), plane, 2*len(plane)+huffBlockHead)
		if !ok {
			t.Fatalf("%s: coder refused", name)
		}
		got := make([]byte, len(plane))
		if err := decodeHuff(got, enc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, plane) {
			t.Fatalf("%s: round trip mismatch", name)
		}
		if name != "one byte" && len(enc) >= len(plane) {
			t.Errorf("%s: %d coded bytes for %d", name, len(enc), len(plane))
		}
	}
}

// FuzzDecode: arbitrary bytes handed to a codec tier as a stored object
// either fail with ErrCorrupt or decode to exactly the header's raw
// length — never a panic, and never more raw bytes than the per-codec
// expansion bound allows for the object's size.
func FuzzDecode(f *testing.F) {
	ctx := context.Background()
	mem := storage.NewMemTier("mem")
	for _, spec := range []Spec{{Compression: "flate", Integrity: true}, {Compression: "flate", Stride: 2}, {Compression: "raw"}} {
		ct, err := New(mem, spec)
		if err != nil {
			f.Fatal(err)
		}
		// Small seeds: the fuzzer minimises every interesting input, and
		// on a multi-block object that takes most of a short CI run.
		for _, payload := range [][]byte{adamState(f, 200), make([]byte, 300), fp16Payload(150), {1, 2, 3}} {
			if err := ct.Write(ctx, "seed", payload); err != nil {
				f.Fatal(err)
			}
			obj, _ := mem.ReadObject(ctx, "seed")
			f.Add(obj)
			obj = bytes.Clone(obj)
			obj[6] &^= flagCRC // let mutations past the checksum
			f.Add(obj)
		}
	}
	for _, name := range []string{"id1-flate-crc.obj", "id1-flate9-s2.obj"} {
		obj, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(obj)
	}
	ct, err := New(mem, Spec{Integrity: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, obj []byte) {
		if err := mem.Write(ctx, "fuzz", obj); err != nil {
			t.Fatal(err)
		}
		got, err := ct.ReadObject(ctx, "fuzz")
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error is not ErrCorrupt: %v", err)
			}
			return
		}
		rawLen := binary.LittleEndian.Uint64(obj[8:])
		if uint64(len(got)) != rawLen {
			t.Fatalf("decoded %d bytes, header says %d", len(got), rawLen)
		}
		if limit := uint64(len(obj)-HeaderSize)*maxFlateExpansion + 64; rawLen > limit {
			t.Fatalf("decoded %d bytes from a %d-byte object", rawLen, len(obj))
		}
		// Whatever decodes must re-encode to something that decodes the same.
		if err := ct.Write(ctx, "again", got); err != nil {
			t.Fatal(err)
		}
		back := make([]byte, len(got))
		if err := ct.Read(ctx, "again", back); err != nil || !bytes.Equal(back, got) {
			t.Fatalf("re-encode round trip: %v", err)
		}
	})
}

// FuzzEncodeRoundTrip: arbitrary bytes at every plane stride encode to
// at most one header more than the input and decode back to exactly it.
// A short input's sampled histogram calls most planes codable, so the
// fuzzer drives the encoder's write cursor through every mix of coded,
// raw and misjudged planes.
func FuzzEncodeRoundTrip(f *testing.F) {
	strides := []int{1, 2, 4, 8}
	for _, seed := range [][]byte{adamState(f, 200), initState(f, 100), make([]byte, 300), fp16Payload(150), randomPayload(257, 3), {1, 2, 3}} {
		for sel := range strides {
			f.Add(seed, uint8(sel))
		}
	}
	tiers := make([]*Tier, len(strides))
	for i, stride := range strides {
		ct, err := New(storage.NewMemTier("mem"), Spec{Compression: "flate", Stride: stride})
		if err != nil {
			f.Fatal(err)
		}
		tiers[i] = ct
	}
	f.Fuzz(func(t *testing.T, src []byte, sel uint8) {
		ct := tiers[int(sel)%len(tiers)]
		enc := ct.Encode(src)
		defer bufpool.Put(enc)
		if len(enc) > HeaderSize+len(src) {
			t.Fatalf("stride %d: %d encoded bytes for %d", ct.Spec().Stride, len(enc), len(src))
		}
		got := make([]byte, len(src))
		if err := ct.Decode("fuzz", enc, got); err != nil {
			t.Fatalf("stride %d: %v", ct.Spec().Stride, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("stride %d: %d-byte round trip mismatch", ct.Spec().Stride, len(src))
		}
	})
}

// BenchmarkCodec times the codec's CPU alone (in-memory tier) on an
// 8 MB serialized subgroup, the benchmark's object size.
func BenchmarkCodec(b *testing.B) {
	ctx := context.Background()
	obj := adamState(b, 666_667)
	ct, err := New(storage.NewMemTier("mem"), Spec{Compression: "flate", Integrity: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(obj)))
		for i := 0; i < b.N; i++ {
			if err := ct.Write(ctx, "k", obj); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(ct.CodecStats().WriteRatio, "ratio")
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(obj)))
		dst := make([]byte, len(obj))
		for i := 0; i < b.N; i++ {
			if err := ct.Read(ctx, "k", dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}
