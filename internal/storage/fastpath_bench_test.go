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
