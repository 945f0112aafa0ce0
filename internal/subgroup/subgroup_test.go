package subgroup

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/datastates/mlpoffload/internal/fp16"
)

func randomize(sg *Subgroup, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < sg.Len(); i++ {
		sg.State.Params[i] = rng.Float32()
		sg.State.M[i] = rng.Float32() * 0.1
		sg.State.V[i] = rng.Float32() * 0.01
		sg.Grads16[i] = fp16.FromFloat32(rng.Float32() * 0.001)
	}
}

func TestMarshalUnmarshalStateOnly(t *testing.T) {
	sg := New(7, 100)
	randomize(sg, 1)
	buf := make([]byte, StateBytes(100))
	n, err := sg.Marshal(buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if n != StateBytes(100) {
		t.Fatalf("wrote %d bytes, want %d", n, StateBytes(100))
	}
	restored := New(7, 100)
	if err := restored.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if restored.State.Params[i] != sg.State.Params[i] ||
			restored.State.M[i] != sg.State.M[i] ||
			restored.State.V[i] != sg.State.V[i] {
			t.Fatalf("state mismatch at %d", i)
		}
	}
}

func TestMarshalWithGrads(t *testing.T) {
	sg := New(3, 64)
	randomize(sg, 2)
	sg.UpscaleGrads()
	buf := make([]byte, StateGradBytes(64))
	n, err := sg.Marshal(buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != StateGradBytes(64) {
		t.Fatalf("wrote %d", n)
	}
	id, cnt, hasGrads, err := PeekHeader(buf)
	if err != nil || id != 3 || cnt != 64 || !hasGrads {
		t.Fatalf("PeekHeader = %d,%d,%v,%v", id, cnt, hasGrads, err)
	}
	restored := New(3, 64)
	if err := restored.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if restored.Grads32[i] != sg.Grads32[i] {
			t.Fatalf("grads mismatch at %d", i)
		}
	}
}

func TestMarshalWithoutGrads32Errors(t *testing.T) {
	sg := New(0, 8)
	buf := make([]byte, StateGradBytes(8))
	if _, err := sg.Marshal(buf, true); err == nil {
		t.Fatal("marshal with unpopulated grads should fail")
	}
}

func TestMarshalShortBuffer(t *testing.T) {
	sg := New(0, 8)
	if _, err := sg.Marshal(make([]byte, 10), false); err == nil {
		t.Fatal("short buffer should fail")
	}
}

func TestUnmarshalValidation(t *testing.T) {
	sg := New(5, 16)
	randomize(sg, 3)
	buf := make([]byte, StateBytes(16))
	if _, err := sg.Marshal(buf, false); err != nil {
		t.Fatal(err)
	}

	// Wrong ID.
	wrongID := New(6, 16)
	if err := wrongID.Unmarshal(buf); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong-ID unmarshal: %v", err)
	}
	// Wrong length.
	wrongLen := New(5, 17)
	if err := wrongLen.Unmarshal(buf); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong-len unmarshal: %v", err)
	}
	// Bad magic.
	bad := append([]byte(nil), buf...)
	bad[0] ^= 0xFF
	if err := sg.Unmarshal(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad-magic unmarshal: %v", err)
	}
	// Bad version.
	bad = append([]byte(nil), buf...)
	bad[4] = 99
	if err := sg.Unmarshal(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad-version unmarshal: %v", err)
	}
	// Truncated body.
	if err := sg.Unmarshal(buf[:HeaderSize+5]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated unmarshal: %v", err)
	}
	// Truncated header.
	if err := sg.Unmarshal(buf[:4]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short header unmarshal: %v", err)
	}
}

func TestUpscaleGrads(t *testing.T) {
	sg := New(0, 4)
	vals := []float32{0.5, -1, 2, 0}
	for i, v := range vals {
		sg.Grads16[i] = fp16.FromFloat32(v)
	}
	sg.UpscaleGrads()
	for i, v := range vals {
		if sg.Grads32[i] != v {
			t.Errorf("grad %d = %v, want %v", i, sg.Grads32[i], v)
		}
	}
}

func TestKeyFormat(t *testing.T) {
	if got := Key(2, 31); got != "rank002-sg00031.opt" {
		t.Errorf("Key = %q", got)
	}
}

func TestNewShardSplitting(t *testing.T) {
	sh := NewShard(0, 1050, 100)
	if len(sh.Subgroups) != 11 {
		t.Fatalf("subgroups = %d, want 11", len(sh.Subgroups))
	}
	if sh.Subgroups[10].Len() != 50 {
		t.Errorf("last subgroup len = %d, want 50", sh.Subgroups[10].Len())
	}
	if sh.Params() != 1050 {
		t.Errorf("total params = %d", sh.Params())
	}
	if sh.MaxSubgroupLen() != 100 {
		t.Errorf("max len = %d", sh.MaxSubgroupLen())
	}
}

// TestNewShardInit: a new shard holds no optimizer state, and the
// initial object MarshalInit writes for each subgroup — into a dirty
// recycled buffer — is byte-identical to marshalling a fresh State with
// the same master parameters.
func TestNewShardInit(t *testing.T) {
	sh := NewShard(1, 10, 4)
	dirty := make([]byte, StateBytes(4)+8)
	var global int64
	for _, sg := range sh.Subgroups {
		if sg.State != nil {
			t.Fatalf("subgroup %d: NewShard built optimizer state", sg.ID)
		}
		params := make([]float32, sg.Len())
		for j := range params {
			params[j] = float32(global)
			global++
		}
		for i := range dirty {
			dirty[i] = 0xA5
		}
		n, err := sg.MarshalInit(dirty, params)
		if err != nil {
			t.Fatal(err)
		}
		ref := New(sg.ID, sg.Len())
		copy(ref.State.Params, params)
		want := make([]byte, StateBytes(sg.Len()))
		if _, err := ref.Marshal(want, false); err != nil {
			t.Fatal(err)
		}
		if n != len(want) || !bytes.Equal(dirty[:n], want) {
			t.Fatalf("subgroup %d: MarshalInit wrote %d bytes differing from Marshal's %d", sg.ID, n, len(want))
		}
		if sg.State != nil {
			t.Fatalf("subgroup %d: MarshalInit materialized a State", sg.ID)
		}
	}
	if global != 10 {
		t.Fatalf("shard covers %d params, want 10", global)
	}
	if _, err := sh.Subgroups[0].MarshalInit(dirty, make([]float32, 3)); err == nil {
		t.Error("MarshalInit accepted a params slice of the wrong length")
	}
	if _, err := sh.Subgroups[0].MarshalInit(dirty[:StateBytes(4)-1], make([]float32, 4)); err == nil {
		t.Error("MarshalInit accepted a short buffer")
	}
}

func TestNewShardValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewShard(0, 100, 0)
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64, nSeed uint8, withGrads bool) bool {
		n := int(nSeed%200) + 1
		sg := New(int(seed&0xFF), n)
		randomize(sg, seed)
		size := StateBytes(n)
		if withGrads {
			sg.UpscaleGrads()
			size = StateGradBytes(n)
		}
		buf := make([]byte, size)
		if _, err := sg.Marshal(buf, withGrads); err != nil {
			return false
		}
		r := New(int(seed&0xFF), n)
		if err := r.Unmarshal(buf); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if r.State.Params[i] != sg.State.Params[i] ||
				r.State.M[i] != sg.State.M[i] ||
				r.State.V[i] != sg.State.V[i] {
				return false
			}
			if withGrads && r.Grads32[i] != sg.Grads32[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSerializedSizesMatchPaperRatios(t *testing.T) {
	// Per-parameter wire sizes: 12 B (ours) vs 16 B (baseline) — the 25%
	// fetch reduction from delayed gradient conversion.
	n := 1000000
	ours := StateBytes(n) - HeaderSize
	baseline := StateGradBytes(n) - HeaderSize
	if ours != 12*n || baseline != 16*n {
		t.Errorf("sizes = %d/%d", ours, baseline)
	}
}

func BenchmarkMarshal(b *testing.B) {
	sg := New(0, 1<<18)
	randomize(sg, 1)
	buf := make([]byte, StateBytes(1<<18))
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sg.Marshal(buf, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	sg := New(0, 1<<18)
	randomize(sg, 1)
	buf := make([]byte, StateBytes(1<<18))
	if _, err := sg.Marshal(buf, false); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sg.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
