package storage

import (
	"context"
	"sync/atomic"

	"github.com/datastates/mlpoffload/internal/bufpool"
)

// Wire-byte accounting.
//
// A transparent codec decorator (internal/tiercodec) changes how many
// bytes an operation actually moves across the tier device: the caller
// reads and writes raw objects, the device sees encoded ones. The
// bandwidth-sensitive layers above (the aio engine's metrics, the
// placement estimator) must keep seeing *wire* bytes or their bandwidth
// estimates silently inflate by the compression ratio. WireCount is the
// side channel for that: the aio engine attaches a cell to the operation
// context, codec decorators record the encoded size they moved, and the
// engine reads it back when the operation completes. Tiers that move
// exactly what the caller handed them never record, and the engine falls
// back to the raw size.

// WireCount holds the device-level (encoded) byte count of one
// operation. Safe for concurrent use.
type WireCount struct {
	n atomic.Int64
}

// Bytes returns the recorded wire size (0 when nothing was recorded).
func (w *WireCount) Bytes() int64 { return w.n.Load() }

type wireCountKey struct{}

// WithWireCount derives a context carrying a fresh wire-byte cell for
// one operation. Nesting a fresh cell shadows any outer one, which is
// how stacked codec layers propagate the *deepest* measurement outward:
// each layer runs its inner operation under a private cell, resolves
// the device-level count from it (falling back to the bytes it moved
// itself when nothing deeper recorded), and records that resolved value
// exactly once into its caller's cell. Every cell therefore receives at
// most one record — from its direct child layer — and the outermost
// cell (the aio engine's) ends up with the count closest to the device
// regardless of how layers stack or whether they shrink or grow the
// object.
func WithWireCount(ctx context.Context) (context.Context, *WireCount) {
	w := &WireCount{}
	return context.WithValue(ctx, wireCountKey{}, w), w
}

// RecordWireBytes records the device-level size of the current
// operation into the context's wire-byte cell, if one is attached; a
// later record overwrites an earlier one (see WithWireCount — with the
// nesting discipline each cell is recorded at most once). It is a no-op
// under a context without a cell.
func RecordWireBytes(ctx context.Context, n int64) {
	if w, ok := ctx.Value(wireCountKey{}).(*WireCount); ok {
		w.n.Store(n)
	}
}

// ObjectReader is an optional Tier capability: read a whole object whose
// size the caller does not know, atomically, returning freshly allocated
// bytes. Codec decorators need it because an encoded object's stored
// size varies per write — a plain Size-then-Read pair could interleave
// with a concurrent same-key Write and observe a torn pair, while
// ReadObject observes one complete previously written object (the Tier
// concurrency contract).
type ObjectReader interface {
	ReadObject(ctx context.Context, key string) ([]byte, error)
}

// ReadWholeObject reads key's complete object: through ObjectReader when
// the tier supports it, otherwise via Size followed by Read. The
// fallback is not atomic against concurrent same-key writes; callers
// needing that ordering must provide it themselves (the engine always
// orders a refetch after its flush). The returned buffer is caller-owned
// pooled memory — recycle with bufpool.Put when done, or drop it.
func ReadWholeObject(ctx context.Context, t Tier, key string) ([]byte, error) {
	if or, ok := t.(ObjectReader); ok {
		return or.ReadObject(ctx, key)
	}
	size, err := t.Size(ctx, key)
	if err != nil {
		return nil, err
	}
	buf := bufpool.Get(int(size))
	if err := t.Read(ctx, key, buf); err != nil {
		bufpool.Put(buf)
		return nil, err
	}
	return buf, nil
}

// SplitTier is an optional Tier capability for a decorator whose Read
// and Write are a CPU transform around one whole-object transfer on the
// tier beneath it (a codec). It exposes the two halves so a scheduler
// can run the CPU half outside whatever serialises access to the device
// — the aio engine holds the node-level tier lock for WriteEncoded and
// ReadEncoded only. Write(key, src) is WriteEncoded(key, Encode(src));
// Read(key, dst) is Decode(key, ReadEncoded(key), dst). Both encoded
// buffers are caller-owned pooled memory (bufpool.Put when done), and
// their format is the implementer's alone.
type SplitTier interface {
	Encode(src []byte) []byte
	WriteEncoded(ctx context.Context, key string, enc []byte) error
	ReadEncoded(ctx context.Context, key string) ([]byte, error)
	Decode(key string, enc, dst []byte) error
}
