package storage

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkFileReadVec reads a set of small objects through ReadVec —
// the issuer's coalesced fetch path, minus the aio queueing that sits
// above it.
func BenchmarkFileReadVec(b *testing.B) {
	const objs, size = 8, 256 << 10
	ft, err := NewFileTier("bench", b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	ctx := context.Background()
	keys := make([]string, objs)
	dsts := make([][]byte, objs)
	for i := range keys {
		keys[i] = fmt.Sprintf("sg-%03d", i)
		if err := ft.Write(ctx, keys[i], payload); err != nil {
			b.Fatal(err)
		}
		dsts[i] = make([]byte, size)
	}
	b.SetBytes(int64(objs) * size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ft.ReadVec(ctx, keys, dsts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFileWriteReplace replaces a set of existing objects — the
// flush path's steady state — publishing by exchange and by the
// plain-rename fallback. On ext4 a rename over an existing file starts
// writeback of the new data inside rename() (auto_da_alloc); the
// exchange does not.
func BenchmarkFileWriteReplace(b *testing.B) {
	const objs, size = 16, 1 << 20
	for _, mode := range []string{"exchange", "rename"} {
		b.Run(mode, func(b *testing.B) {
			ft, err := NewFileTier("bench", b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			ft.noExchange.Store(mode == "rename")
			payload := make([]byte, size)
			ctx := context.Background()
			keys := make([]string, objs)
			for i := range keys {
				keys[i] = fmt.Sprintf("sg-%03d", i)
				if err := ft.Write(ctx, keys[i], payload); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ft.Write(ctx, keys[i%objs], payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
