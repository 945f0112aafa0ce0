package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"syscall"
	"testing"

	"github.com/datastates/mlpoffload/internal/bufpool"
)

// flakyReaderAt injects the partial results a network filesystem can
// return: every ReadAt delivers at most chunk bytes, and the first
// len(interrupts) calls fail with the scripted error after zero bytes.
type flakyReaderAt struct {
	data       []byte
	chunk      int
	interrupts []error
	calls      int
}

func (r *flakyReaderAt) ReadAt(p []byte, off int64) (int, error) {
	r.calls++
	if len(r.interrupts) > 0 {
		err := r.interrupts[0]
		r.interrupts = r.interrupts[1:]
		return 0, err
	}
	if off >= int64(len(r.data)) {
		return 0, io.EOF
	}
	n := copy(p, r.data[off:])
	if n > r.chunk {
		n = r.chunk
	}
	var err error
	if off+int64(n) >= int64(len(r.data)) {
		err = io.EOF
	}
	return n, err
}

func TestReadAtFullRetriesShortReadsAndEINTR(t *testing.T) {
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	r := &flakyReaderAt{
		data:       data,
		chunk:      777, // force many short reads
		interrupts: []error{syscall.EINTR, &os.PathError{Op: "read", Err: syscall.EINTR}},
	}
	dst := make([]byte, len(data))
	n, err := readAtFull(r, dst, 0)
	if err != nil || n != len(data) {
		t.Fatalf("readAtFull = (%d, %v), want (%d, nil)", n, err, len(data))
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("reassembled bytes differ from source")
	}
	if r.calls < len(data)/777 {
		t.Fatalf("expected many short reads, saw %d calls", r.calls)
	}
}

// WriteAt is ReadAt's mirror: at most chunk bytes into data per call,
// after the scripted interrupts.
func (r *flakyReaderAt) WriteAt(p []byte, off int64) (int, error) {
	r.calls++
	if len(r.interrupts) > 0 {
		err := r.interrupts[0]
		r.interrupts = r.interrupts[1:]
		return 0, err
	}
	return copy(r.data[off:], p[:min(len(p), r.chunk)]), nil
}

func TestWriteAtFullRetriesShortWritesAndEINTR(t *testing.T) {
	src := make([]byte, 10000)
	for i := range src {
		src[i] = byte(i * 7)
	}
	w := &flakyReaderAt{
		data:       make([]byte, len(src)),
		chunk:      777,
		interrupts: []error{syscall.EINTR, &os.PathError{Op: "write", Err: syscall.EINTR}},
	}
	if n, err := writeAtFull(w, src, 0); err != nil || n != len(src) {
		t.Fatalf("writeAtFull = (%d, %v), want (%d, nil)", n, err, len(src))
	}
	if !bytes.Equal(w.data, src) {
		t.Fatal("reassembled bytes differ from source")
	}
	// A writer that accepts nothing and reports nothing fails instead of
	// spinning.
	stuck := &flakyReaderAt{data: make([]byte, 8)}
	if _, err := writeAtFull(stuck, src[:8], 0); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("zero-progress write: err = %v, want io.ErrShortWrite", err)
	}
}

func TestReadAtFullSurfacesTruncation(t *testing.T) {
	r := &flakyReaderAt{data: make([]byte, 100), chunk: 100}
	dst := make([]byte, 200)
	n, err := readAtFull(r, dst, 0)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF for truncated object, got (%d, %v)", n, err)
	}
	if n != 100 {
		t.Fatalf("progress = %d, want 100", n)
	}
}

func TestReadAtFullBoundsEINTRStorm(t *testing.T) {
	storm := make([]error, eintrRetryLimit+10)
	for i := range storm {
		storm[i] = syscall.EINTR
	}
	r := &flakyReaderAt{data: make([]byte, 8), chunk: 8, interrupts: storm}
	if _, err := readAtFull(r, make([]byte, 8), 0); !errors.Is(err, syscall.EINTR) {
		t.Fatalf("want bounded EINTR error, got %v", err)
	}
}

// faultReaderAtTier wires flaky ReadAt behaviour into a real FileTier
// read path by pre-seeding the file, then reading through the tier —
// the tier-level assertion that Read survives partial reads is done via
// the os.File path (kernel reads of regular files do not short-read),
// so this test instead asserts the error text for genuinely short
// objects, the case the old single-ReadAt call conflated with EINTR.
func TestFileTierReadShortObject(t *testing.T) {
	ft, err := NewFileTier("nvme", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := ft.Write(ctx, "obj", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	err = ft.Read(ctx, "obj", make([]byte, 200))
	if err == nil || !errors.Is(err, io.EOF) {
		t.Fatalf("reading 200 bytes of a 100-byte object: got %v, want EOF-wrapping error", err)
	}
}

func testReadVec(t *testing.T, tier Tier) {
	t.Helper()
	ctx := context.Background()
	sizes := []int{16, 4096, 100, 12288, 1}
	keys := make([]string, len(sizes))
	want := make([][]byte, len(sizes))
	for i, n := range sizes {
		keys[i] = fmt.Sprintf("vec%d", i)
		want[i] = bytes.Repeat([]byte{byte(i + 10)}, n)
		if err := tier.Write(ctx, keys[i], want[i]); err != nil {
			t.Fatal(err)
		}
	}
	dsts := make([][]byte, len(sizes))
	for i, n := range sizes {
		dsts[i] = make([]byte, n)
	}
	if err := ReadVec(ctx, tier, keys, dsts); err != nil {
		t.Fatal(err)
	}
	for i := range dsts {
		if !bytes.Equal(dsts[i], want[i]) {
			t.Fatalf("object %d differs after vectored read", i)
		}
	}
	// Missing member surfaces an error.
	bad := append(append([]string{}, keys...), "missing")
	badDst := append(append([][]byte{}, dsts...), make([]byte, 8))
	if err := ReadVec(ctx, tier, bad, badDst); !errors.Is(err, ErrNotFound) {
		t.Fatalf("vectored read with missing member: %v, want ErrNotFound", err)
	}
	if err := ReadVec(ctx, tier, keys, dsts[:1]); err == nil {
		t.Fatal("mismatched keys/buffers accepted")
	}
}

func TestMemTierReadVec(t *testing.T) { testReadVec(t, NewMemTier("mem")) }

func TestFileTierReadVec(t *testing.T) {
	ft, err := NewFileTier("nvme", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testReadVec(t, ft)
}

func TestThrottledReadVecDelegates(t *testing.T) {
	th := NewThrottled(NewMemTier("mem"), ThrottleConfig{ReadBW: 1 << 30, WriteBW: 1 << 30})
	testReadVec(t, th)
}

// TestReadVecFallbackLoops exercises the non-VectoredReader path.
type plainTier struct{ Tier }

func TestReadVecFallbackLoops(t *testing.T) {
	testReadVec(t, plainTier{NewMemTier("mem")})
}

// TestFileTierRoundTripSizes round-trips objects of sizes around a
// 4 KiB block boundary, odd lengths included, through Read, ReadVec and
// ReadObject.
func TestFileTierRoundTripSizes(t *testing.T) {
	ft, err := NewFileTier("nvme", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// One closure per size keeps each pooled buffer's Get→Put lifecycle in
	// its own function scope.
	checkSize := func(n int) {
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i*13 + n)
		}
		key := fmt.Sprintf("obj%d", n)
		if err := ft.Write(ctx, key, src); err != nil {
			t.Fatalf("write %d: %v", n, err)
		}
		dst := make([]byte, n)
		if err := ft.Read(ctx, key, dst); err != nil || !bytes.Equal(dst, src) {
			t.Fatalf("Read %d: err %v, bytes equal %v", n, err, bytes.Equal(dst, src))
		}
		vec := [][]byte{make([]byte, n)}
		if err := ft.ReadVec(ctx, []string{key}, vec); err != nil || !bytes.Equal(vec[0], src) {
			t.Fatalf("ReadVec %d: err %v, bytes equal %v", n, err, bytes.Equal(vec[0], src))
		}
		obj, err := ft.ReadObject(ctx, key)
		if err != nil || !bytes.Equal(obj, src) {
			t.Fatalf("ReadObject %d: err %v, bytes equal %v", n, err, bytes.Equal(obj, src))
		}
		bufpool.Put(obj)
	}
	for _, n := range []int{1, 4095, 4096, 4097, 12288, 100003} {
		checkSize(n)
	}
}
