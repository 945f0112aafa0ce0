//go:build linux && !race

package storage

import (
	"context"
	"testing"
)

// TestFileTierAllocatesNothing pins the Linux fast path: a steady-state
// Read, ReadVec, Write (replacing an object, by exchange and by rename)
// and Delete each allocate nothing.
func TestFileTierAllocatesNothing(t *testing.T) {
	publishModes(t, func(t *testing.T, ft *FileTier) {
		ctx := context.Background()
		keys := []string{"rank000-sg00001.opt", "rank000-sg00002.opt"}
		src := generation(3)
		for _, k := range keys {
			if err := ft.Write(ctx, k, src); err != nil {
				t.Fatal(err)
			}
		}
		dst := make([]byte, len(src))
		dsts := [][]byte{make([]byte, len(src)), make([]byte, len(src))}
		for _, c := range []struct {
			name string
			op   func() error
		}{
			{"Read", func() error { return ft.Read(ctx, keys[0], dst) }},
			{"ReadVec", func() error { return ft.ReadVec(ctx, keys, dsts) }},
			{"Write", func() error { return ft.Write(ctx, keys[1], src) }},
			{"Delete", func() error {
				if err := ft.Write(ctx, "gone", src); err != nil {
					return err
				}
				return ft.Delete(ctx, "gone")
			}},
			{"DeleteMissing", func() error { return ft.Delete(ctx, "never-written") }},
		} {
			var err error
			allocs := testing.AllocsPerRun(50, func() {
				if e := c.op(); e != nil && err == nil {
					err = e
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if allocs != 0 {
				t.Errorf("%s: %.1f allocs/op, want 0", c.name, allocs)
			}
		}
	})
}
