package aio

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/datastates/mlpoffload/internal/clock"
	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/tiercodec"
	"github.com/datastates/mlpoffload/internal/tierlock"
)

// hookCodec is a real codec tier whose CPU halves call a hook first, so
// a test can park an encode or decode, or make it cost virtual time.
type hookCodec struct {
	*tiercodec.Tier
	hook func(half string, first byte)
}

func (h *hookCodec) Encode(src []byte) []byte {
	h.hook("encode", src[0])
	return h.Tier.Encode(src)
}

func (h *hookCodec) Decode(key string, enc, dst []byte) error {
	h.hook("decode", key[0])
	return h.Tier.Decode(key, enc, dst)
}

func newCodec(t *testing.T, inner storage.Tier) *tiercodec.Tier {
	t.Helper()
	ct, err := tiercodec.New(inner, tiercodec.Spec{Compression: "flate", Integrity: true})
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func waitOp(t *testing.T, op *Op, what string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := op.WaitCtx(ctx); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestCodecCPURunsOutsideTierLock: while one worker is parked inside an
// encode (then a decode), the tier's second worker takes the node-level
// lock, finishes its own device transfer and releases it — the lock
// serialises device access, not compression — and nobody ever waits for
// the lock.
func TestCodecCPURunsOutsideTierLock(t *testing.T) {
	entered := make(chan string, 2)
	release := make(chan struct{})
	codec := &hookCodec{Tier: newCodec(t, storage.NewMemTier("nvme")), hook: func(half string, first byte) {
		if first == 'A' {
			entered <- half
			<-release
		}
	}}
	locks := tierlock.NewManager(true)
	e := New(codec, Config{Workers: 2, Locks: locks})
	defer e.Close()

	payload := func(first byte) []byte { return append([]byte{first}, bytes.Repeat([]byte{0, 0, 0x80, 0x3f}, 4096)...) }
	slow, err := e.SubmitWriteClass(Flush, "A", payload('A'))
	if err != nil {
		t.Fatal(err)
	}
	if half := <-entered; half != "encode" {
		t.Fatalf("parked in %s, want encode", half)
	}
	fast, err := e.SubmitWriteClass(Flush, "B", payload('B'))
	if err != nil {
		t.Fatal(err)
	}
	waitOp(t, fast, "device write while the other worker is still encoding")
	select {
	case <-slow.Done():
		t.Fatal("parked encode finished")
	default:
	}
	release <- struct{}{}
	waitOp(t, slow, "parked write")

	// Same on the read side: A's decode parks after its transfer.
	dstA, dstB := make([]byte, len(payload('A'))), make([]byte, len(payload('B')))
	slow, err = e.SubmitReadClass(Prefetch, "A", dstA)
	if err != nil {
		t.Fatal(err)
	}
	if half := <-entered; half != "decode" {
		t.Fatalf("parked in %s, want decode", half)
	}
	fast, err = e.SubmitReadClass(Prefetch, "B", dstB)
	if err != nil {
		t.Fatal(err)
	}
	waitOp(t, fast, "device read while the other worker is still decoding")
	release <- struct{}{}
	waitOp(t, slow, "parked read")
	if !bytes.Equal(dstA, payload('A')) || !bytes.Equal(dstB, payload('B')) {
		t.Fatal("round trip mismatch")
	}

	if st := locks.Stats("nvme"); st.WaitTotal != 0 || st.Grants != 4 {
		t.Fatalf("lock stats %+v, want 4 grants and no waiting", st)
	}
}

// TestTransferTimeIsTheDeviceStep pins Op.TransferTime on a virtual
// clock: over a device that takes exactly 6ms per operation, a codec
// tier whose encode and decode each cost 4ms reports 6ms of transfer
// with the 4ms beside it as CodecTime — and a plain tier's stamps are
// what they always were.
func TestTransferTimeIsTheDeviceStep(t *testing.T) {
	clk := clock.NewVirtualAuto()
	device := func() storage.Tier {
		return tiercodec.NewFaultTier(storage.NewMemTier("dev"), tiercodec.FaultConfig{LatencyEvery: 1, Latency: 6 * time.Millisecond, Clock: clk})
	}
	codec := &hookCodec{Tier: newCodec(t, device()), hook: func(string, byte) { clk.Sleep(4 * time.Millisecond) }}
	payload := bytes.Repeat([]byte{1, 2, 3, 0x3f}, 1000)

	for name, tier := range map[string]storage.Tier{"codec": codec, "plain": device()} {
		wantCodec := time.Duration(0)
		if name == "codec" {
			wantCodec = 4 * time.Millisecond
		}
		e := New(tier, Config{Workers: 1, Clock: clk})
		w, err := e.SubmitWriteClass(Flush, "k", payload)
		if err != nil {
			t.Fatal(err)
		}
		waitOp(t, w, name+" write")
		r, err := e.SubmitReadClass(DemandFetch, "k", make([]byte, len(payload)))
		if err != nil {
			t.Fatal(err)
		}
		waitOp(t, r, name+" read")
		for _, op := range []*Op{w, r} {
			if op.TransferTime() != 6*time.Millisecond || op.CodecTime() != wantCodec {
				t.Errorf("%s %s: transfer %v codec %v, want 6ms and %v", name, op.Kind, op.TransferTime(), op.CodecTime(), wantCodec)
			}
		}
		if m := e.Metrics(); m.WriteTime != 6*time.Millisecond || m.ReadTime != 6*time.Millisecond {
			t.Errorf("%s: engine write/read time %v/%v, want 6ms each", name, m.WriteTime, m.ReadTime)
		}
		if cm := e.ClassMetrics(Flush); cm.Transfer != 6*time.Millisecond {
			t.Errorf("%s: flush class transfer %v, want 6ms", name, cm.Transfer)
		}
		e.Close()
	}
}

// TestVecReadOnCodecTier: a coalesced read of a codec tier takes the lock
// once per member, decodes every member, reports the members' encoded
// sizes summed (one wire-count cell used to keep only the last member's),
// and surfaces a corrupt member as the op's ErrCorrupt.
func TestVecReadOnCodecTier(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemTier("nvme")
	codec := newCodec(t, mem)
	locks := tierlock.NewManager(true)
	e := New(codec, Config{Workers: 2, Locks: locks})
	defer e.Close()

	var keys []string
	var want, dsts [][]byte
	var wire int64
	for i := 0; i < 3; i++ {
		keys = append(keys, fmt.Sprintf("sg%d", i))
		want = append(want, bytes.Repeat([]byte{byte(i), 0, 0x80, 0x3f}, 1000*(i+1)))
		dsts = append(dsts, make([]byte, len(want[i])))
		if err := codec.Write(ctx, keys[i], want[i]); err != nil {
			t.Fatal(err)
		}
		enc, err := codec.EncodedSize(ctx, keys[i])
		if err != nil {
			t.Fatal(err)
		}
		wire += enc
	}
	op, err := e.SubmitReadVecClass(Prefetch, keys, dsts)
	if err != nil {
		t.Fatal(err)
	}
	waitOp(t, op, "vectored read")
	for i := range dsts {
		if !bytes.Equal(dsts[i], want[i]) {
			t.Fatalf("member %d differs", i)
		}
	}
	if op.WireBytes() != wire {
		t.Errorf("wire bytes %d, want the members' encoded sizes summed, %d", op.WireBytes(), wire)
	}
	if st := locks.Stats("nvme"); st.Grants != 3 || st.WaitTotal != 0 {
		t.Errorf("lock stats %+v, want one uncontended grant per member", st)
	}

	obj, err := mem.ReadObject(ctx, keys[1])
	if err != nil {
		t.Fatal(err)
	}
	obj[len(obj)-1] ^= 1
	if err := mem.Write(ctx, keys[1], obj); err != nil {
		t.Fatal(err)
	}
	op, err = e.SubmitReadVecClass(Prefetch, keys, dsts)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Wait(); !errors.Is(err, tiercodec.ErrCorrupt) {
		t.Fatalf("corrupt member: %v, want ErrCorrupt", err)
	}
}
