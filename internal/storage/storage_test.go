package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/datastates/mlpoffload/internal/clock"
	"github.com/datastates/mlpoffload/internal/ratelimit"
)

func testTierBasics(t *testing.T, tier Tier) {
	t.Helper()
	ctx := context.Background()

	// Missing key.
	dst := make([]byte, 4)
	if err := tier.Read(ctx, "missing", dst); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read missing: %v", err)
	}
	if _, err := tier.Size(ctx, "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Size missing: %v", err)
	}

	// Round trip.
	payload := []byte{1, 2, 3, 4}
	if err := tier.Write(ctx, "k1", payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if err := tier.Read(ctx, "k1", got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip: got %v", got)
	}
	if sz, err := tier.Size(ctx, "k1"); err != nil || sz != 4 {
		t.Fatalf("Size = %d, %v", sz, err)
	}

	// Overwrite.
	if err := tier.Write(ctx, "k1", []byte{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := tier.Read(ctx, "k1", got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 {
		t.Fatal("overwrite lost")
	}

	// Keys.
	if err := tier.Write(ctx, "a", []byte{0}); err != nil {
		t.Fatal(err)
	}
	keys, err := tier.Keys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "k1" {
		t.Fatalf("Keys = %v", keys)
	}

	// Delete (idempotent).
	if err := tier.Delete(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if err := tier.Delete(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tier.Size(ctx, "a"); !errors.Is(err, ErrNotFound) {
		t.Fatal("delete did not remove key")
	}

	// Stats recorded.
	st := tier.Stats()
	if st.BytesWritten == 0 || st.BytesRead == 0 || st.Reads == 0 || st.Writes == 0 {
		t.Fatalf("stats not recorded: %+v", st)
	}
}

func TestMemTier(t *testing.T) { testTierBasics(t, NewMemTier("mem")) }

func TestFileTier(t *testing.T) {
	ft, err := NewFileTier("nvme", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testTierBasics(t, ft)
}

func TestFileTierKeyEscaping(t *testing.T) {
	ft, err := NewFileTier("x", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := ft.Write(ctx, "a/b", []byte{1}); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 1)
	if err := ft.Read(ctx, "a/b", dst); err != nil {
		t.Fatal(err)
	}
}

// TestTierSizeMismatch pins the Tier contract's "the object size must
// equal len(dst)": reading an object into a larger or a smaller buffer
// fails, through Read and ReadVec, on every concrete tier.
func TestTierSizeMismatch(t *testing.T) {
	ctx := context.Background()
	ft, err := NewFileTier("file", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiers := map[string]Tier{"mem": NewMemTier("mem"), "file": ft}
	reads := map[string]func(Tier, string, []byte) error{
		"Read": func(tier Tier, key string, dst []byte) error { return tier.Read(ctx, key, dst) },
		"ReadVec": func(tier Tier, key string, dst []byte) error {
			return ReadVec(ctx, tier, []string{key}, [][]byte{dst})
		},
	}
	shapes := []struct {
		name      string
		obj, dstN int
	}{
		{"larger-object", 5, 3},
		{"smaller-object", 3, 5},
	}
	for tname, tier := range tiers {
		for rname, read := range reads {
			for _, sh := range shapes {
				t.Run(tname+"/"+rname+"/"+sh.name, func(t *testing.T) {
					key := fmt.Sprintf("k%d", sh.obj)
					if err := tier.Write(ctx, key, bytes.Repeat([]byte{7}, sh.obj)); err != nil {
						t.Fatal(err)
					}
					if err := read(tier, key, make([]byte, sh.dstN)); err == nil {
						t.Fatalf("%d-byte object read into %d-byte dst: nil error", sh.obj, sh.dstN)
					}
				})
			}
		}
	}
}

func TestMemTierWriteCopies(t *testing.T) {
	m := NewMemTier("m")
	ctx := context.Background()
	src := []byte{1, 2, 3}
	if err := m.Write(ctx, "k", src); err != nil {
		t.Fatal(err)
	}
	src[0] = 99 // mutating caller buffer must not affect stored object
	got := make([]byte, 3)
	if err := m.Read(ctx, "k", got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatal("Write did not copy the payload")
	}
}

func TestContextCancellation(t *testing.T) {
	m := NewMemTier("m")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.Write(ctx, "k", []byte{1}); err == nil {
		t.Fatal("canceled context should fail Write")
	}
	if err := m.Read(ctx, "k", make([]byte, 1)); err == nil {
		t.Fatal("canceled context should fail Read")
	}
}

func TestThrottledEnforcesBandwidth(t *testing.T) {
	clk := clock.NewVirtualAuto()
	tt := NewThrottled(NewMemTier("m"), ThrottleConfig{
		ReadBW: 1000, WriteBW: 500, Clock: clk,
	})
	ctx := context.Background()
	payload := make([]byte, 2000)
	start := clk.Now()
	if err := tt.Write(ctx, "k", payload); err != nil {
		t.Fatal(err)
	}
	// 2000 B at 500 B/s with the default 125 B burst credit: exactly
	// (2000-125)/500 = 3.75s of virtual time. All quantities are dyadic
	// rationals, so the token math is exact down to the nanosecond.
	if got, want := clk.Now().Sub(start), 3750*time.Millisecond; got != want {
		t.Errorf("write of 2000B at 500B/s took %v, want exactly %v", got, want)
	}
	start = clk.Now()
	if err := tt.Read(ctx, "k", payload); err != nil {
		t.Fatal(err)
	}
	// (2000-250)/1000 = 1.75s.
	if got, want := clk.Now().Sub(start), 1750*time.Millisecond; got != want {
		t.Errorf("read of 2000B at 1000B/s took %v, want exactly %v", got, want)
	}
}

func TestThrottledName(t *testing.T) {
	tt := NewThrottled(NewMemTier("nvme"), ThrottleConfig{ReadBW: 1, WriteBW: 1})
	if tt.Name() != "nvme" {
		t.Errorf("Name = %q", tt.Name())
	}
	if tt.Unwrap().Name() != "nvme" {
		t.Error("Unwrap broken")
	}
}

func TestThrottledPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewThrottled(NewMemTier("m"), ThrottleConfig{ReadBW: 0, WriteBW: 1})
}

func TestThrottledContentionSlowsConcurrent(t *testing.T) {
	// With an interference curve, a second concurrent writer pays the
	// efficiency penalty. On a manual virtual clock the entry order is
	// orchestrated, so the total is an exact closed-form figure instead of
	// a wall-time range: writer A enters alone (charged 32KiB at eff(1)=1),
	// writer B enters while A is parked in the limiter (charged
	// 32KiB/eff(2) = 48KiB), and the shared 64KiB/s bucket opens with
	// 16KiB of burst credit — (32KiB+48KiB-16KiB)/64KiB/s = exactly 1s.
	clk := clock.NewVirtual()
	tt := NewThrottled(NewMemTier("m"), ThrottleConfig{
		ReadBW: 1e9, WriteBW: 64 * 1024, Curve: ratelimit.InterferenceCurve(0.5),
		Clock: clk,
	})
	ctx := context.Background()
	payload := make([]byte, 32*1024)
	start := clk.Now()
	var wg sync.WaitGroup
	write := func(i int) {
		defer wg.Done()
		if err := tt.Write(ctx, fmt.Sprintf("k%d", i), payload); err != nil {
			t.Error(err)
		}
	}
	wg.Add(2)
	go write(0)
	clk.BlockUntil(1) // A holds the gate, parked on the limiter
	go write(1)
	clk.BlockUntil(2) // B charged at eff(2), parked behind A
	stop := make(chan struct{})
	go clk.Drive(stop)
	wg.Wait()
	close(stop)
	if got, want := clk.Now().Sub(start), time.Second; got != want {
		t.Errorf("contended writes took %v of virtual time, want exactly %v", got, want)
	}
}

// TestThrottledWallVirtualParity drives the same workload through a
// wall-clock and a virtual-clock throttled tier and checks the byte
// accounting is identical: the clock changes how time passes, never what
// the tier observes moving.
func TestThrottledWallVirtualParity(t *testing.T) {
	run := func(clk ratelimit.Clock) Stats {
		// High bandwidth so the wall-clock run completes at memory speed.
		tt := NewThrottled(NewMemTier("m"), ThrottleConfig{
			ReadBW: 1 << 30, WriteBW: 1 << 30, Clock: clk,
		})
		ctx := context.Background()
		payload := make([]byte, 8192)
		for i := 0; i < 4; i++ {
			key := fmt.Sprintf("k%d", i)
			if err := tt.Write(ctx, key, payload); err != nil {
				t.Fatal(err)
			}
			if err := tt.Read(ctx, key, payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := tt.Unwrap().Delete(ctx, "k0"); err != nil {
			t.Fatal(err)
		}
		return tt.Stats()
	}
	wall, virt := run(nil), run(clock.NewVirtualAuto())
	if wall != virt {
		t.Errorf("byte accounting diverged:\nwall    %+v\nvirtual %+v", wall, virt)
	}
}

func TestFaultTierInjectsErrors(t *testing.T) {
	boom := errors.New("boom")
	ft := &FaultTier{Tier: NewMemTier("m"), FailEvery: 2, Err: boom, FailWrites: true}
	ctx := context.Background()
	var fails int
	for i := 0; i < 6; i++ {
		if err := ft.Write(ctx, "k", []byte{1}); errors.Is(err, boom) {
			fails++
		}
	}
	if fails != 3 {
		t.Errorf("fails = %d, want 3", fails)
	}
	// Reads unaffected when FailReads is false.
	if err := ft.Read(ctx, "k", make([]byte, 1)); err != nil {
		t.Errorf("read failed: %v", err)
	}
}

func TestPropertyRoundTripArbitraryPayloads(t *testing.T) {
	m := NewMemTier("m")
	ctx := context.Background()
	f := func(key string, payload []byte) bool {
		if key == "" {
			key = "k"
		}
		if err := m.Write(ctx, key, payload); err != nil {
			return false
		}
		got := make([]byte, len(payload))
		if err := m.Read(ctx, key, got); err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentMemTierAccess(t *testing.T) {
	m := NewMemTier("m")
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("w%d", w)
			payload := bytes.Repeat([]byte{byte(w)}, 128)
			for i := 0; i < 50; i++ {
				if err := m.Write(ctx, key, payload); err != nil {
					t.Error(err)
					return
				}
				got := make([]byte, 128)
				if err := m.Read(ctx, key, got); err != nil {
					t.Error(err)
					return
				}
				if got[0] != byte(w) {
					t.Errorf("cross-contamination on %s", key)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestFileTierErrorPaths(t *testing.T) {
	dir := t.TempDir()
	ft, err := NewFileTier("x", dir)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Dir() != dir {
		t.Errorf("Dir = %q", ft.Dir())
	}
	ctx := context.Background()
	// Short read: stored object smaller than dst.
	if err := ft.Write(ctx, "small", []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := ft.Read(ctx, "small", make([]byte, 10)); err == nil {
		t.Error("short read not detected")
	}
	// Keys must hide temp files.
	if err := os.WriteFile(filepath.Join(dir, "junk.tmp"), []byte{1}, 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := ft.Keys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if strings.HasSuffix(k, ".tmp") {
			t.Errorf("temp file leaked into Keys: %v", keys)
		}
	}
	// Canceled context on every op.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := ft.Read(cctx, "small", make([]byte, 2)); err == nil {
		t.Error("canceled read accepted")
	}
	if _, err := ft.Size(cctx, "small"); err == nil {
		t.Error("canceled size accepted")
	}
	if _, err := ft.Keys(cctx); err == nil {
		t.Error("canceled keys accepted")
	}
	if err := ft.Delete(cctx, "small"); err == nil {
		t.Error("canceled delete accepted")
	}
}

func TestNewFileTierBadPath(t *testing.T) {
	// A file where a directory should be.
	dir := t.TempDir()
	blocker := filepath.Join(dir, "f")
	if err := os.WriteFile(blocker, []byte{1}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileTier("x", filepath.Join(blocker, "sub")); err == nil {
		t.Error("NewFileTier under a regular file should fail")
	}
}

// TestTiersConcurrencyContract exercises every Tier implementation from
// many goroutines — distinct keys, plus same-key read/write atomicity —
// under -race this verifies the concurrency contract documented on Tier
// that the parallel update pipeline relies on. The shared-dir case runs
// the workers over two FileTiers on one directory, as ranks in separate
// processes share a tier directory, with a leftover file planted at the
// next temp name each writer will draw.
func TestTiersConcurrencyContract(t *testing.T) {
	mk := []struct {
		name string
		tier Tier
	}{
		{"mem", NewMemTier("mem")},
		{"file", func() Tier {
			ft, err := NewFileTier("file", t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return ft
		}()},
		{"throttled", NewThrottled(NewMemTier("th"), ThrottleConfig{
			ReadBW: 64 << 20, WriteBW: 64 << 20,
		})},
		{"fault", &FaultTier{Tier: NewMemTier("f")}}, // fault disabled: plumbing only
	}
	for _, tc := range mk {
		t.Run(tc.name, func(t *testing.T) {
			hammerTiers(t, tc.tier)
		})
	}
	t.Run("shared-dir", func(t *testing.T) {
		dir := t.TempDir()
		var tiers []Tier
		var leftovers []string
		for i := 0; i < 2; i++ {
			ft, err := NewFileTier("file", dir)
			if err != nil {
				t.Fatal(err)
			}
			tiers = append(tiers, ft)
			next := ft.tmpPath(nil, "shared", ft.tmpSeq.Load()+1).String()
			if err := os.WriteFile(next, []byte("leftover"), 0o644); err != nil {
				t.Fatal(err)
			}
			leftovers = append(leftovers, next)
		}
		hammerTiers(t, tiers...)
		for _, p := range leftovers {
			if got, err := os.ReadFile(p); err != nil || string(got) != "leftover" {
				t.Errorf("leftover %s = %q, %v: a writer took a name it did not create", filepath.Base(p), got, err)
			}
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if tmps := len(ents) - 7; tmps != len(leftovers) { // 7 keys: shared, own-0..5
			t.Errorf("%d temp files left, want only the %d planted", tmps, len(leftovers))
		}
	})
}

// hammerTiers runs six workers over tiers, worker w on tiers[w%len]: each
// writes and reads back its own key, and all of them write and read one
// shared key, which must never read torn.
func hammerTiers(t *testing.T, tiers ...Tier) {
	const n = 64
	ctx := context.Background()
	// Seed the shared key so every read finds a complete object.
	shared := bytes.Repeat([]byte{0xAA}, n)
	if err := tiers[0].Write(ctx, "shared", shared); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tier := tiers[w%len(tiers)]
			own := fmt.Sprintf("own-%d", w)
			payload := bytes.Repeat([]byte{byte(w + 1)}, n)
			for i := 0; i < 25; i++ {
				if err := tier.Write(ctx, own, payload); err != nil {
					t.Error(err)
					return
				}
				got := make([]byte, n)
				if err := tier.Read(ctx, own, got); err != nil {
					t.Error(err)
					return
				}
				if got[0] != byte(w+1) || got[n-1] != byte(w+1) {
					t.Errorf("%s: cross-key contamination", own)
					return
				}
				// Same-key concurrency: each writer stores a
				// uniform payload; a torn read would mix values.
				fill := bytes.Repeat([]byte{byte(w + 1)}, n)
				if err := tier.Write(ctx, "shared", fill); err != nil {
					t.Error(err)
					return
				}
				if err := tier.Read(ctx, "shared", got); err != nil {
					t.Error(err)
					return
				}
				for j := 1; j < n; j++ {
					if got[j] != got[0] {
						t.Errorf("torn read on shared key: %v", got[:8])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if _, err := tiers[0].Keys(ctx); err != nil {
		t.Fatal(err)
	}
}

// testTierCopy exercises the Copier contract on a tier: the copy matches
// the source and stays isolated from later Writes of either key.
func testTierCopy(t *testing.T, tier Tier) {
	t.Helper()
	ctx := context.Background()
	c, ok := tier.(Copier)
	if !ok {
		t.Fatalf("%s does not implement Copier", tier.Name())
	}
	orig := []byte("generation-1")
	if err := tier.Write(ctx, "live", orig); err != nil {
		t.Fatal(err)
	}
	if err := c.Copy(ctx, "live", "snap"); err != nil {
		t.Fatal(err)
	}
	// Overwriting the live key must not touch the snapshot (Write always
	// publishes a fresh object — the invariant link/alias copies rely on).
	if err := tier.Write(ctx, "live", []byte("generation-2")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(orig))
	if err := tier.Read(ctx, "snap", got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig) {
		t.Errorf("snapshot = %q, want the pre-overwrite %q", got, orig)
	}
	if err := c.Copy(ctx, "missing", "x"); !errors.Is(err, ErrNotFound) {
		t.Errorf("copy of missing key: err = %v, want ErrNotFound", err)
	}
	// Copy over an existing destination replaces it.
	if err := c.Copy(ctx, "live", "snap"); err != nil {
		t.Fatal(err)
	}
	got2 := make([]byte, len("generation-2"))
	if err := tier.Read(ctx, "snap", got2); err != nil {
		t.Fatal(err)
	}
	if string(got2) != "generation-2" {
		t.Errorf("re-copy = %q, want generation-2", got2)
	}
}

func TestMemTierCopy(t *testing.T) { testTierCopy(t, NewMemTier("mem")) }

func TestFileTierCopy(t *testing.T) {
	tier, err := NewFileTier("file", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testTierCopy(t, tier)
}

func TestThrottledCopyDelegates(t *testing.T) {
	inner := NewMemTier("mem")
	th := NewThrottled(inner, ThrottleConfig{ReadBW: 1e6, WriteBW: 1e6})
	testTierCopy(t, th)
}

func TestTryCopyFallback(t *testing.T) {
	ctx := context.Background()
	// FaultTier embeds the Tier interface, so it exposes no Copy.
	plain := &FaultTier{Tier: NewMemTier("mem")}
	if copied, err := TryCopy(ctx, plain, "a", "b"); copied || err != nil {
		t.Errorf("TryCopy on plain tier = %v, %v; want unsupported", copied, err)
	}
	// Throttled over a non-Copier inner reports ErrCopyUnsupported, which
	// TryCopy maps to "not performed".
	th := NewThrottled(&FaultTier{Tier: NewMemTier("mem")}, ThrottleConfig{ReadBW: 1e6, WriteBW: 1e6})
	if copied, err := TryCopy(ctx, th, "a", "b"); copied || err != nil {
		t.Errorf("TryCopy through non-copier decorator = %v, %v; want unsupported", copied, err)
	}
	mem := NewMemTier("mem")
	if err := mem.Write(ctx, "a", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if copied, err := TryCopy(ctx, mem, "a", "b"); !copied || err != nil {
		t.Errorf("TryCopy on MemTier = %v, %v; want performed", copied, err)
	}
}
