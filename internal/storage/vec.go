package storage

import (
	"context"
	"fmt"
)

// VectoredReader is an optional Tier capability: fill dsts[i] with the
// complete object stored at keys[i], as one tier-level operation. Each
// object read keeps the Tier contract's per-key atomicity (a filled
// dst is some complete previously written object); the batch as a
// whole is not transactional — on error, dsts may be partially filled
// and the caller re-reads individually to attribute the failure.
//
// The capability exists for the engine's read-ahead coalescing: runs of
// adjacent same-tier subgroup objects are submitted as one aio op, so
// the tier sees the whole run at once — FileTier reads it object by
// object inside one aio op, MemTier under a single lock acquisition.
type VectoredReader interface {
	ReadVec(ctx context.Context, keys []string, dsts [][]byte) error
}

// ReadVec reads keys[i] into dsts[i] through the tier's VectoredReader
// fast path when it has one, falling back to sequential whole-object
// Reads otherwise. Both paths return the first failing object's error.
func ReadVec(ctx context.Context, t Tier, keys []string, dsts [][]byte) error {
	if len(keys) != len(dsts) {
		return fmt.Errorf("storage: vectored read: %d keys, %d buffers", len(keys), len(dsts))
	}
	if vr, ok := t.(VectoredReader); ok {
		return vr.ReadVec(ctx, keys, dsts)
	}
	for i := range keys {
		if err := t.Read(ctx, keys[i], dsts[i]); err != nil {
			return err
		}
	}
	return nil
}
