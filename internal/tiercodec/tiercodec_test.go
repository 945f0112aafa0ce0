package tiercodec

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/datastates/mlpoffload/internal/clock"
	"github.com/datastates/mlpoffload/internal/storage"
)

// fp32Payload builds a synthetic optimizer-state-like payload: normally
// distributed floats around a common scale, so the sign/exponent bytes
// cluster the way real master parameters and Adam moments do — the
// distribution the byte-plane transpose targets.
func fp32Payload(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		v := float32(0.25 + rng.NormFloat64()*0.01)
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// randomPayload is incompressible data for the bypass path.
func randomPayload(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	rng.Read(out)
	return out
}

func mustTier(t *testing.T, inner storage.Tier, spec Spec) *Tier {
	t.Helper()
	ct, err := New(inner, spec)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func TestRoundTripAllSpecs(t *testing.T) {
	ctx := context.Background()
	payloads := map[string][]byte{
		"fp32":  fp32Payload(10_000, 1),
		"rand":  randomPayload(40_000, 2),
		"tiny":  {1, 2, 3},
		"empty": {},
	}
	for _, spec := range []Spec{
		{Compression: "flate", Integrity: true},
		{Compression: "flate"},
		{Compression: "flate", Stride: 2},
		{Compression: "raw", Integrity: true},
		{Integrity: true},
	} {
		for name, payload := range payloads {
			inner := storage.NewMemTier("mem")
			ct := mustTier(t, inner, spec)
			key := "obj"
			if err := ct.Write(ctx, key, payload); err != nil {
				t.Fatalf("%v/%s: write: %v", spec, name, err)
			}
			got := make([]byte, len(payload))
			if err := ct.Read(ctx, key, got); err != nil {
				t.Fatalf("%v/%s: read: %v", spec, name, err)
			}
			if !bytes.Equal(payload, got) {
				t.Fatalf("%v/%s: round trip mismatch", spec, name)
			}
			if size, err := ct.Size(ctx, key); err != nil || size != int64(len(payload)) {
				t.Fatalf("%v/%s: Size = %d, %v; want raw %d", spec, name, size, err, len(payload))
			}
			enc, err := ct.EncodedSize(ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			if enc > int64(len(payload)+HeaderSize) {
				t.Fatalf("%v/%s: encoded %d exceeds raw+header %d (bypass broken)",
					spec, name, enc, len(payload)+HeaderSize)
			}
		}
	}
}

func TestFlateCompressesFP32(t *testing.T) {
	ctx := context.Background()
	ct := mustTier(t, storage.NewMemTier("mem"), Spec{Compression: "flate", Integrity: true})
	payload := fp32Payload(100_000, 3)
	if err := ct.Write(ctx, "obj", payload); err != nil {
		t.Fatal(err)
	}
	enc, _ := ct.EncodedSize(ctx, "obj")
	ratio := float64(len(payload)) / float64(enc)
	if ratio < 1.2 {
		t.Fatalf("FP32 payload compressed only %.2fx (encoded %d / raw %d)", ratio, enc, len(payload))
	}
	st := ct.CodecStats()
	if st.Bypassed != 0 || st.Objects != 1 || st.WriteRatio < 1.2 {
		t.Fatalf("unexpected codec stats: %+v", st)
	}
}

func TestIncompressibleBypass(t *testing.T) {
	ctx := context.Background()
	ct := mustTier(t, storage.NewMemTier("mem"), Spec{Compression: "flate", Integrity: true})
	payload := randomPayload(64_000, 4)
	if err := ct.Write(ctx, "obj", payload); err != nil {
		t.Fatal(err)
	}
	enc, _ := ct.EncodedSize(ctx, "obj")
	if enc != int64(len(payload)+HeaderSize) {
		t.Fatalf("bypassed object stored as %d bytes, want raw+header %d", enc, len(payload)+HeaderSize)
	}
	if st := ct.CodecStats(); st.Bypassed != 1 {
		t.Fatalf("bypass not counted: %+v", st)
	}
	got := make([]byte, len(payload))
	if err := ct.Read(ctx, "obj", got); err != nil || !bytes.Equal(payload, got) {
		t.Fatalf("bypassed object round trip failed: %v", err)
	}
}

// TestCrossCodecDecode proves decoding is header-driven: objects written
// under one spec read back through a tier configured with another, the
// property checkpoint restore relies on across codec changes.
func TestCrossCodecDecode(t *testing.T) {
	ctx := context.Background()
	inner := storage.NewMemTier("mem")
	payload := fp32Payload(5_000, 5)
	writer := mustTier(t, inner, Spec{Compression: "flate", Integrity: true})
	if err := writer.Write(ctx, "obj", payload); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Spec{{Integrity: true}, {Compression: "raw"}, {Compression: "flate", Stride: 8}} {
		reader := mustTier(t, inner, spec)
		got := make([]byte, len(payload))
		if err := reader.Read(ctx, "obj", got); err != nil {
			t.Fatalf("reader %v: %v", spec, err)
		}
		if !bytes.Equal(payload, got) {
			t.Fatalf("reader %v: payload mismatch", spec)
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	ctx := context.Background()
	payload := fp32Payload(5_000, 6)
	cases := []struct {
		name   string
		mutate func(obj []byte) []byte
	}{
		{"payload bit flip", func(obj []byte) []byte { obj[HeaderSize+len(obj)/2] ^= 1; return obj }},
		{"header raw-length", func(obj []byte) []byte { obj[8] ^= 1; return obj }},
		{"truncated object", func(obj []byte) []byte { return obj[:len(obj)*3/4] }},
		{"no codec header", func(obj []byte) []byte { return []byte("definitely not encoded") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inner := storage.NewMemTier("mem")
			ct := mustTier(t, inner, Spec{Compression: "flate", Integrity: true})
			if err := ct.Write(ctx, "obj", payload); err != nil {
				t.Fatal(err)
			}
			obj, err := inner.ReadObject(ctx, "obj")
			if err != nil {
				t.Fatal(err)
			}
			if err := inner.Write(ctx, "obj", tc.mutate(obj)); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(payload))
			err = ct.Read(ctx, "obj", got)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("corrupted read returned %v, want ErrCorrupt", err)
			}
			// Every header-driven entry point must fail typed — never
			// panic or allocate from a corrupted length field.
			if _, err := ct.ReadObject(ctx, "obj"); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("corrupted ReadObject returned %v, want ErrCorrupt", err)
			}
			if _, err := ct.Size(ctx, "obj"); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("corrupted Size returned %v, want ErrCorrupt", err)
			}
			if ct.CodecStats().IntegrityErrors == 0 {
				t.Fatal("integrity error not counted")
			}
		})
	}
}

// TestCorruptHeaderLengthNoPanic pins the bit-rotted-length backstop: a
// header claiming an absurd raw length must surface as ErrCorrupt from
// every entry point, never as a runaway allocation — with integrity
// (the CRC covers the header) and without it (the format bound and the
// raw-codec length cross-check).
func TestCorruptHeaderLengthNoPanic(t *testing.T) {
	ctx := context.Background()
	payload := fp32Payload(5_000, 20)
	for _, spec := range []Spec{
		{Compression: "flate", Integrity: true},
		{Compression: "flate"},
		{Compression: "raw"},
	} {
		inner := storage.NewMemTier("mem")
		ct := mustTier(t, inner, spec)
		if err := ct.Write(ctx, "obj", payload); err != nil {
			t.Fatal(err)
		}
		obj, _ := inner.ReadObject(ctx, "obj")
		obj[14] ^= 0xFF // rawLen byte 6: claims ~2^55 bytes
		if err := inner.Write(ctx, "obj", obj); err != nil {
			t.Fatal(err)
		}
		if _, err := ct.ReadObject(ctx, "obj"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%v: ReadObject on rotted length returned %v, want ErrCorrupt", spec, err)
		}
		if _, err := ct.Size(ctx, "obj"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%v: Size on rotted length returned %v, want ErrCorrupt", spec, err)
		}
	}
}

// TestCRCDetectsWhatFlateMisses: without integrity, a bit flip in the
// middle of a *raw-coded* payload round-trips silently; with integrity
// it is ErrCorrupt. This is the reason the two stages compose.
func TestCRCDetectsWhatFlateMisses(t *testing.T) {
	ctx := context.Background()
	payload := randomPayload(10_000, 7)
	for _, integrity := range []bool{false, true} {
		inner := storage.NewMemTier("mem")
		ct := mustTier(t, inner, Spec{Compression: "raw", Integrity: integrity})
		if err := ct.Write(ctx, "obj", payload); err != nil {
			t.Fatal(err)
		}
		obj, _ := inner.ReadObject(ctx, "obj")
		obj[HeaderSize+100] ^= 0xFF
		if err := inner.Write(ctx, "obj", obj); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(payload))
		err := ct.Read(ctx, "obj", got)
		if integrity && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("integrity on: got %v, want ErrCorrupt", err)
		}
		if !integrity && err != nil {
			t.Fatalf("integrity off: raw codec cannot detect the flip, got %v", err)
		}
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in      string
		want    string // round-tripped String() of the normalized spec
		enabled bool
		wantErr bool
	}{
		{"", "", false, false},
		{"off", "", false, false},
		{"flate", "flate", true, false},
		{"flate+crc", "flate+crc", true, false},
		{"flate:6+crc", "", false, true}, // levels went with the DEFLATE writer
		{"crc", "raw+crc", true, false},
		{"raw", "raw", true, false},
		{"none", "raw", true, false},
		{"zstd", "", false, true},
		{"flate:11", "", false, true},
		{"flate+crc+crc+x", "", false, true},
	}
	for _, tc := range cases {
		s, err := ParseSpec(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Fatalf("ParseSpec(%q): expected error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.in, err)
		}
		if s.Enabled() != tc.enabled {
			t.Fatalf("ParseSpec(%q).Enabled() = %v", tc.in, s.Enabled())
		}
		ns, _ := s.normalize()
		if tc.enabled && ns.String() != tc.want {
			t.Fatalf("ParseSpec(%q).String() = %q, want %q", tc.in, ns.String(), tc.want)
		}
	}
}

func TestDescribe(t *testing.T) {
	mem := storage.NewMemTier("mem")
	if d := Describe(mem); d != "" {
		t.Fatalf("plain tier described as %q", d)
	}
	ct := mustTier(t, mem, Spec{Compression: "flate", Integrity: true})
	if d := Describe(ct); d != "flate+crc" {
		t.Fatalf("codec tier described as %q", d)
	}
	if ct.Name() != "mem" {
		t.Fatalf("codec tier must be name-transparent, got %q", ct.Name())
	}
}

func TestWireBytesRecorded(t *testing.T) {
	ctx0 := context.Background()
	ct := mustTier(t, storage.NewMemTier("mem"), Spec{Compression: "flate", Integrity: true})
	payload := fp32Payload(50_000, 8)

	ctx, wc := storage.WithWireCount(ctx0)
	if err := ct.Write(ctx, "obj", payload); err != nil {
		t.Fatal(err)
	}
	enc, _ := ct.EncodedSize(ctx0, "obj")
	if wc.Bytes() != enc {
		t.Fatalf("write recorded %d wire bytes, encoded object is %d", wc.Bytes(), enc)
	}
	if wc.Bytes() >= int64(len(payload)) {
		t.Fatalf("wire bytes %d not smaller than raw %d", wc.Bytes(), len(payload))
	}

	ctx, wc = storage.WithWireCount(ctx0)
	got := make([]byte, len(payload))
	if err := ct.Read(ctx, "obj", got); err != nil {
		t.Fatal(err)
	}
	if wc.Bytes() != enc {
		t.Fatalf("read recorded %d wire bytes, want %d", wc.Bytes(), enc)
	}
}

// TestWireBytesStackedCodecs: with codec layers stacked, the wire count
// reaching the caller's cell must be the *innermost* layer's — the
// bytes the device actually stored — in both stacking directions:
// flate-inside (inner layer shrinks the outer's object) and
// crc-inside (inner layer grows it by a header).
func TestWireBytesStackedCodecs(t *testing.T) {
	ctx0 := context.Background()
	payload := fp32Payload(50_000, 21)
	stacks := map[string]func(mem *storage.MemTier) *Tier{
		"crc-over-flate": func(mem *storage.MemTier) *Tier {
			inner := mustTier(t, mem, Spec{Compression: "flate"})
			return mustTier(t, inner, Spec{Integrity: true})
		},
		"flate-over-crc": func(mem *storage.MemTier) *Tier {
			inner := mustTier(t, mem, Spec{Integrity: true})
			return mustTier(t, inner, Spec{Compression: "flate"})
		},
	}
	for name, mk := range stacks {
		t.Run(name, func(t *testing.T) {
			mem := storage.NewMemTier("mem")
			stack := mk(mem)

			ctx, wc := storage.WithWireCount(ctx0)
			if err := stack.Write(ctx, "obj", payload); err != nil {
				t.Fatal(err)
			}
			stored, err := mem.Size(ctx0, "obj")
			if err != nil {
				t.Fatal(err)
			}
			if wc.Bytes() != stored {
				t.Fatalf("write recorded %d wire bytes, device stored %d", wc.Bytes(), stored)
			}

			ctx, wc = storage.WithWireCount(ctx0)
			got := make([]byte, len(payload))
			if err := stack.Read(ctx, "obj", got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(payload, got) {
				t.Fatal("stacked round trip mismatch")
			}
			if wc.Bytes() != stored {
				t.Fatalf("read recorded %d wire bytes, device stored %d", wc.Bytes(), stored)
			}
		})
	}
}

// TestCopierHardLinkFastPath: a codec-wrapped FileTier's server-side
// copy must preserve the encoded bytes and header exactly (the copy
// decodes identically) and still take the hard-link fast path.
func TestCopierHardLinkFastPath(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ft, err := storage.NewFileTier("nvme", dir)
	if err != nil {
		t.Fatal(err)
	}
	ct := mustTier(t, ft, Spec{Compression: "flate", Integrity: true})
	payload := fp32Payload(20_000, 9)
	if err := ct.Write(ctx, "live", payload); err != nil {
		t.Fatal(err)
	}

	copied, err := storage.TryCopy(ctx, ct, "live", "snap")
	if err != nil || !copied {
		t.Fatalf("TryCopy through codec tier: copied=%v err=%v", copied, err)
	}

	// Encoded bytes (header included) must be byte-identical.
	src, err := ft.ReadObject(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := ft.ReadObject(ctx, "snap")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("server-side copy altered encoded bytes")
	}

	// Still the hard-link fast path: same inode on disk.
	fi1, err1 := os.Stat(filepath.Join(dir, "live"))
	fi2, err2 := os.Stat(filepath.Join(dir, "snap"))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !os.SameFile(fi1, fi2) {
		t.Fatal("copy through codec tier lost the hard-link fast path")
	}

	// The snapshot decodes like the source, and survives an overwrite of
	// the live key (Write publishes a fresh inode).
	if err := ct.Write(ctx, "live", fp32Payload(20_000, 10)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := ct.Read(ctx, "snap", got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, got) {
		t.Fatal("snapshot no longer decodes to the original payload")
	}
}

// noCopyTier hides any Copier implementation of the wrapped tier.
type noCopyTier struct{ storage.Tier }

// TestCopierFallback: when the inner tier has no server-side copy, the
// codec tier reports ErrCopyUnsupported and storage.TryCopy signals the
// caller to fall back — and the staged read+write fallback through the
// codec still produces an object that decodes identically.
func TestCopierFallback(t *testing.T) {
	ctx := context.Background()
	ct := mustTier(t, noCopyTier{storage.NewMemTier("mem")}, Spec{Compression: "flate", Integrity: true})
	payload := fp32Payload(10_000, 11)
	if err := ct.Write(ctx, "live", payload); err != nil {
		t.Fatal(err)
	}
	copied, err := storage.TryCopy(ctx, ct, "live", "snap")
	if err != nil || copied {
		t.Fatalf("TryCopy over copy-less inner: copied=%v err=%v, want fallback", copied, err)
	}
	// The caller's fallback: read through the codec, write through the
	// codec (re-encoding is allowed — only decoded equality matters).
	buf := make([]byte, len(payload))
	if err := ct.Read(ctx, "live", buf); err != nil {
		t.Fatal(err)
	}
	if err := ct.Write(ctx, "snap", buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := ct.Read(ctx, "snap", got); err != nil || !bytes.Equal(payload, got) {
		t.Fatalf("fallback copy mismatch: %v", err)
	}
}

func TestFaultTierDeterminism(t *testing.T) {
	ctx := context.Background()
	payload := fp32Payload(1_000, 12)
	ft := NewFaultTier(storage.NewMemTier("mem"), FaultConfig{FailReadEvery: 3, FailWriteEvery: 2})
	for i := 0; i < 6; i++ {
		err := ft.Write(ctx, fmt.Sprintf("k%d", i), payload)
		wantErr := (i+1)%2 == 0
		if (err != nil) != wantErr {
			t.Fatalf("write %d: err=%v, want injected=%v", i, err, wantErr)
		}
		if wantErr && !errors.Is(err, ErrInjected) {
			t.Fatalf("write %d: %v, want ErrInjected", i, err)
		}
	}
	dst := make([]byte, len(payload))
	for i := 0; i < 6; i++ {
		err := ft.Read(ctx, "k0", dst)
		wantErr := (i+1)%3 == 0
		if (err != nil) != wantErr {
			t.Fatalf("read %d: err=%v, want injected=%v", i, err, wantErr)
		}
	}
	st := ft.FaultStats()
	if st.WriteErrors != 3 || st.ReadErrors != 2 {
		t.Fatalf("fault stats %+v", st)
	}
}

// TestFaultTransientVsPersistent: read corruption is transient (a retry
// reads clean), write corruption is persistent (every read fails) —
// through a codec tier with integrity, both surface as ErrCorrupt.
func TestFaultTransientVsPersistent(t *testing.T) {
	ctx := context.Background()
	payload := fp32Payload(5_000, 13)
	dst := make([]byte, len(payload))

	// Transient: first read corrupt, retry clean.
	fault := NewFaultTier(storage.NewMemTier("mem"), FaultConfig{CorruptReadEvery: 1})
	ct := mustTier(t, fault, Spec{Compression: "flate", Integrity: true})
	if err := ct.Write(ctx, "obj", payload); err != nil {
		t.Fatal(err)
	}
	fault.cfg.CorruptReadEvery = 2 // corrupt every second read from here
	if err := ct.Read(ctx, "obj", dst); err != nil {
		t.Fatalf("first read (clean per counter): %v", err)
	}
	if err := ct.Read(ctx, "obj", dst); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted read: %v, want ErrCorrupt", err)
	}
	if err := ct.Read(ctx, "obj", dst); err != nil {
		t.Fatalf("retry after transient corruption: %v", err)
	}
	if !bytes.Equal(payload, dst) {
		t.Fatal("retry returned wrong payload")
	}

	// Persistent: the stored object is corrupt; retries keep failing.
	fault2 := NewFaultTier(storage.NewMemTier("mem"), FaultConfig{CorruptWriteEvery: 1})
	ct2 := mustTier(t, fault2, Spec{Compression: "flate", Integrity: true})
	if err := ct2.Write(ctx, "obj", payload); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ct2.Read(ctx, "obj", dst); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("read %d of persistently corrupt object: %v, want ErrCorrupt", i, err)
		}
	}

	// Torn: a truncated stored object is ErrCorrupt too.
	fault3 := NewFaultTier(storage.NewMemTier("mem"), FaultConfig{TornWriteEvery: 1})
	ct3 := mustTier(t, fault3, Spec{Compression: "flate", Integrity: true})
	if err := ct3.Write(ctx, "obj", payload); err != nil {
		t.Fatal(err)
	}
	if err := ct3.Read(ctx, "obj", dst); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read of torn object: %v, want ErrCorrupt", err)
	}
}

// TestCodecTierConcurrency exercises the codec tier under the storage
// concurrency contract: concurrent distinct-key traffic plus same-key
// readers against a same-key writer (through the atomic ObjectReader
// path) must each observe some complete previously written object.
func TestCodecTierConcurrency(t *testing.T) {
	ctx := context.Background()
	ct := mustTier(t, storage.NewMemTier("mem"), Spec{Compression: "flate", Integrity: true})
	const n = 8
	versions := make([][]byte, 4)
	for v := range versions {
		versions[v] = fp32Payload(2_000, int64(100+v))
	}
	for k := 0; k < n; k++ {
		if err := ct.Write(ctx, fmt.Sprintf("k%d", k), versions[0]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]byte, len(versions[0]))
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", (g+i)%n)
				if i%5 == 0 {
					if err := ct.Write(ctx, key, versions[i%len(versions)]); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if err := ct.Read(ctx, key, dst); err != nil {
					t.Error(err)
					return
				}
				ok := false
				for _, v := range versions {
					if bytes.Equal(dst, v) {
						ok = true
						break
					}
				}
				if !ok {
					t.Error("read observed a torn object")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFaultLatencyExactOnVirtualClock pins the latency-spike channel to
// virtual time: every Nth operation advances the clock by exactly the
// configured spike, the rest advance it not at all, and no real waiting
// happens anywhere.
func TestFaultLatencyExactOnVirtualClock(t *testing.T) {
	clk := clock.NewVirtualAuto()
	ft := NewFaultTier(storage.NewMemTier("mem"), FaultConfig{
		LatencyEvery: 2,
		Latency:      3 * time.Millisecond,
		Clock:        clk,
	})
	ctx := context.Background()
	start := clk.Now()
	payload := []byte{1, 2, 3, 4}
	for i := 0; i < 3; i++ {
		if err := ft.Write(ctx, "k", payload); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, len(payload))
	if err := ft.Read(ctx, "k", dst); err != nil {
		t.Fatal(err)
	}
	// Reads and writes share the latency counter: ops 2 and 4 spiked.
	if got, want := clk.Now().Sub(start), 6*time.Millisecond; got != want {
		t.Errorf("virtual time advanced %v, want exactly %v (2 spikes x 3ms)", got, want)
	}
	if got := ft.FaultStats().LatencySpikes; got != 2 {
		t.Errorf("LatencySpikes = %d, want 2", got)
	}
}

// TestFaultTierHardDown: after the trigger count (or an explicit
// Down()), every operation of every kind fails with storage.ErrTierDown
// and never recovers — an outage, not a transient fault.
func TestFaultTierHardDown(t *testing.T) {
	ctx := context.Background()
	payload := fp32Payload(1_000, 7)
	ft := NewFaultTier(storage.NewMemTier("mem"), FaultConfig{DownAfterOps: 3})
	dst := make([]byte, len(payload))

	// Ops 1-3 succeed; the tier dies after the trigger.
	if err := ft.Write(ctx, "a", payload); err != nil {
		t.Fatalf("op 1: %v", err)
	}
	if err := ft.Write(ctx, "b", payload); err != nil {
		t.Fatalf("op 2: %v", err)
	}
	if err := ft.Read(ctx, "a", dst); err != nil {
		t.Fatalf("op 3: %v", err)
	}
	if ft.IsDown() {
		t.Fatal("tier down before the trigger count")
	}

	checks := []struct {
		name string
		op   func() error
	}{
		{"read", func() error { return ft.Read(ctx, "a", dst) }},
		{"write", func() error { return ft.Write(ctx, "c", payload) }},
		{"readObject", func() error { _, err := ft.ReadObject(ctx, "a"); return err }},
		{"delete", func() error { return ft.Delete(ctx, "a") }},
		{"size", func() error { _, err := ft.Size(ctx, "a"); return err }},
		{"keys", func() error { _, err := ft.Keys(ctx); return err }},
		{"copy", func() error { return ft.Copy(ctx, "a", "a2") }},
	}
	for _, c := range checks {
		if err := c.op(); !errors.Is(err, storage.ErrTierDown) {
			t.Fatalf("%s after outage: %v, want ErrTierDown", c.name, err)
		}
	}
	if !ft.IsDown() {
		t.Fatal("IsDown false after the trigger")
	}
	if got := ft.FaultStats().DownFailures; got != int64(len(checks)) {
		t.Fatalf("DownFailures = %d, want %d", got, len(checks))
	}
	// The stored object survives behind the outage (the tier is down,
	// the bytes are not gone — exactly how a lost mount behaves).
	if err := ft.Unwrap().Read(ctx, "a", dst); err != nil {
		t.Fatalf("inner tier lost data: %v", err)
	}
}

// TestFaultTierForcedDown: Down() kills the tier at a chosen moment with
// no op-count trigger configured.
func TestFaultTierForcedDown(t *testing.T) {
	ctx := context.Background()
	ft := NewFaultTier(storage.NewMemTier("mem"), FaultConfig{})
	if err := ft.Write(ctx, "a", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	ft.Down()
	if err := ft.Write(ctx, "b", []byte{4}); !errors.Is(err, storage.ErrTierDown) {
		t.Fatalf("write after Down: %v, want ErrTierDown", err)
	}
}
