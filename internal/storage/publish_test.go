package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/datastates/mlpoffload/internal/bufpool"
)

// publishModes runs a test against a FileTier that publishes
// replacements by exchange where the platform offers it, and against one
// held to the plain-rename fallback.
func publishModes(t *testing.T, fn func(t *testing.T, ft *FileTier)) {
	for _, mode := range []string{"exchange", "rename"} {
		t.Run(mode, func(t *testing.T) {
			ft, err := NewFileTier("file", t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if mode == "rename" {
				ft.noExchange.Store(true)
			}
			fn(t, ft)
		})
	}
}

// generation returns replacement i's payload: its length and every byte
// name i, so a reader can tell a torn or mixed object from a whole one.
func generation(i int) []byte {
	return bytes.Repeat([]byte{byte(i)}, 4096+i%7*512)
}

// readGeneration reads key and reports whether it holds one whole
// generation.
func readGeneration(ft *FileTier, key string) error {
	data, err := ft.ReadObject(context.Background(), key)
	if err != nil {
		return err
	}
	defer bufpool.Put(data)
	return checkGeneration(data)
}

// checkGeneration reports whether data is one whole generation.
func checkGeneration(data []byte) error {
	if len(data) == 0 {
		return errors.New("empty object")
	}
	g := int(data[0])
	if want := generation(g); !bytes.Equal(data, want) {
		return fmt.Errorf("mixed object: %d bytes starting with %d, generation %d has %d bytes", len(data), g, g, len(want))
	}
	return nil
}

// TestFileTierReplaceUnderConcurrentReaders replaces one key repeatedly
// while readers hammer it: every read finds the key and sees exactly one
// whole generation.
func TestFileTierReplaceUnderConcurrentReaders(t *testing.T) {
	publishModes(t, func(t *testing.T, ft *FileTier) {
		ctx := context.Background()
		if err := ft.Write(ctx, "k", generation(0)); err != nil {
			t.Fatal(err)
		}
		var stop atomic.Bool
		var reads atomic.Int64
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					if err := readGeneration(ft, "k"); err != nil {
						t.Errorf("read during replacement: %v", err)
						return
					}
					reads.Add(1)
				}
			}()
		}
		const replacements = 200
		for i := 1; i <= replacements; i++ {
			if err := ft.Write(ctx, "k", generation(i)); err != nil {
				t.Fatal(err)
			}
		}
		stop.Store(true)
		wg.Wait()
		data, err := ft.ReadObject(ctx, "k")
		if err != nil {
			t.Fatal(err)
		}
		defer bufpool.Put(data)
		if !bytes.Equal(data, generation(replacements)) {
			t.Errorf("final object is not the last generation written")
		}
		if reads.Load() == 0 {
			t.Error("readers completed no read")
		}
	})
}

// TestFileTierCopySurvivesReplacement: a Copy snapshot is a hard link to
// the old inode, which neither the exchange nor the unlink of the
// replaced object's temp name may touch.
func TestFileTierCopySurvivesReplacement(t *testing.T) {
	publishModes(t, func(t *testing.T, ft *FileTier) {
		ctx := context.Background()
		if err := ft.Write(ctx, "live", generation(1)); err != nil {
			t.Fatal(err)
		}
		if err := ft.Copy(ctx, "live", "snap"); err != nil {
			t.Fatal(err)
		}
		for i := 2; i < 10; i++ {
			if err := ft.Write(ctx, "live", generation(i)); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := ft.ReadObject(ctx, "snap")
		if err != nil {
			t.Fatal(err)
		}
		defer bufpool.Put(snap)
		if !bytes.Equal(snap, generation(1)) {
			t.Errorf("snapshot changed after the source was replaced")
		}
	})
}

// TestFileTierLeavesNoTempFiles: neither a first write (which has
// nothing to exchange with and publishes by rename) nor any number of
// replacements leaves a temp file behind.
func TestFileTierLeavesNoTempFiles(t *testing.T) {
	publishModes(t, func(t *testing.T, ft *FileTier) {
		ctx := context.Background()
		checkDir := func(when string) {
			t.Helper()
			ents, err := os.ReadDir(ft.Dir())
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if strings.HasSuffix(e.Name(), ".tmp") {
					t.Errorf("%s: temp file %s left behind", when, e.Name())
				}
			}
		}
		if err := ft.Write(ctx, "a", generation(0)); err != nil {
			t.Fatal(err)
		}
		checkDir("after a first write")
		for i := 1; i <= 50; i++ {
			if err := ft.Write(ctx, "a", generation(i)); err != nil {
				t.Fatal(err)
			}
		}
		checkDir("after 50 replacements")
		if keys, err := ft.Keys(ctx); err != nil || len(keys) != 1 {
			t.Errorf("Keys = %v, %v; want [a]", keys, err)
		}
	})
}

// cpathOf is s as the NUL-terminated path the primitives take.
func cpathOf(s string) cpath { return append(cpath(s), 0) }

// TestExchangeSwapsEntries pins the primitive: both names survive with
// their contents swapped, and a missing entry reports fs.ErrNotExist,
// which Write takes as a first write.
func TestExchangeSwapsEntries(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := os.WriteFile(a, []byte("A"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte("B"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := exchange(cpathOf(a), cpathOf(b))
	if errors.Is(err, errNoExchange) {
		t.Skip("no rename exchange on this platform")
	}
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{a: "B", b: "A"} {
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Errorf("%s = %q, %v; want %q", filepath.Base(path), got, err, want)
		}
	}
	if err := exchange(cpathOf(a), cpathOf(filepath.Join(dir, "missing"))); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("exchange with a missing entry: err = %v, want ErrNotExist", err)
	}
	// Where the primitive works, Write keeps using it: a first write's
	// ENOENT does not switch the tier to rename.
	ft, err := NewFileTier("file", filepath.Join(dir, "tier"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ft.Write(context.Background(), "k", generation(i)); err != nil {
			t.Fatal(err)
		}
	}
	if ft.noExchange.Load() {
		t.Error("tier fell back to rename on a filesystem with exchange")
	}
}
