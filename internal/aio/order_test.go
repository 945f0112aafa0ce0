package aio

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"github.com/datastates/mlpoffload/internal/clock"
	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/tiercodec"
)

// Same-key order on a manually driven virtual clock. Every read and write
// of the rig's tier costs exactly opLatency of virtual time (deletes are
// free), so a test parks a worker by submitting an op and waiting for its
// sleep, and asserts queue times to the nanosecond.
const opLatency = 4 * time.Millisecond

type orderRig struct {
	t   *testing.T
	clk *clock.VirtualClock
	mem *storage.MemTier
	e   *Engine
}

func newOrderRig(t *testing.T, workers int) *orderRig {
	clk := clock.NewVirtual()
	mem := storage.NewMemTier("dev")
	tier := tiercodec.NewFaultTier(mem, tiercodec.FaultConfig{LatencyEvery: 1, Latency: opLatency, Clock: clk})
	r := &orderRig{t: t, clk: clk, mem: mem, e: New(tier, Config{Workers: workers, AgingThreshold: -1, Clock: clk})}
	t.Cleanup(func() { // a failed test may leave transfers asleep: wake them so Close returns
		stop := make(chan struct{})
		defer close(stop)
		go clk.Drive(stop)
		r.e.Close()
	})
	return r
}

func (r *orderRig) put(key string, data []byte) {
	r.t.Helper()
	if err := r.mem.Write(context.Background(), key, data); err != nil {
		r.t.Fatal(err)
	}
}

func (r *orderRig) write(c Class, key string, data []byte) *Op {
	r.t.Helper()
	op, err := r.e.SubmitWriteClass(c, key, data)
	if err != nil {
		r.t.Fatal(err)
	}
	return op
}

func (r *orderRig) read(c Class, key string, dst []byte) *Op {
	r.t.Helper()
	op, err := r.e.SubmitReadClass(c, key, dst)
	if err != nil {
		r.t.Fatal(err)
	}
	return op
}

func (r *orderRig) del(c Class, key string) *Op {
	r.t.Helper()
	op, err := r.e.SubmitDelete(c, key)
	if err != nil {
		r.t.Fatal(err)
	}
	return op
}

// step waits until n transfers are asleep and lets them all finish.
func (r *orderRig) step(n int) {
	r.clk.BlockUntil(n)
	r.clk.Advance(opLatency)
}

func wantQueueTime(t *testing.T, what string, op *Op, want time.Duration) {
	t.Helper()
	if got := op.QueueTime(); got != want {
		t.Errorf("%s queue time = %v, want exactly %v", what, got, want)
	}
}

// TestSameKeyWriteSurvivesEarlierDelete is the eviction-after-reclaim
// hazard: a Migration-class delete of a key, then a Flush-class write of
// it. Class priority alone runs the write first and lets the delete
// remove the fresh object.
func TestSameKeyWriteSurvivesEarlierDelete(t *testing.T) {
	r := newOrderRig(t, 1)
	r.put("k", []byte("old"))
	blocker := r.write(DemandFetch, "blocker", []byte{0})
	r.clk.BlockUntil(1) // the only worker sleeps inside the blocker
	del := r.del(Migration, "k")
	w := r.write(Flush, "k", []byte("new"))
	if q := r.e.QueuedByClass(); q[Flush] != 1 || q[Migration] != 0 {
		t.Fatalf("queues %v: want the delete alone, lifted to the write's class", q)
	}
	r.step(1) // blocker lands; the delete is free, the write sleeps next
	r.step(1)
	r.e.Drain()
	waitOp(t, blocker, "blocker")
	waitOp(t, del, "delete")
	waitOp(t, w, "write")
	got, err := r.mem.ReadObject(context.Background(), "k")
	if err != nil || !bytes.Equal(got, []byte("new")) {
		t.Fatalf("after drain the key holds %q, %v; want the write submitted after the delete", got, err)
	}
	if del.Class() != Flush {
		t.Errorf("delete ran at %v, want it to inherit flush from the write parked behind it", del.Class())
	}
	wantQueueTime(t, "delete", del, opLatency)
	wantQueueTime(t, "write", w, opLatency)
}

// TestSameKeyReadSeesEarlierWrite: with an idle second worker a read
// still waits for the write submitted before it — and only for that: an
// op on another key overlaps the write.
func TestSameKeyReadSeesEarlierWrite(t *testing.T) {
	r := newOrderRig(t, 2)
	r.put("k", []byte("old"))
	r.put("j", []byte("jjj"))
	w := r.write(Flush, "k", []byte("new"))
	r.clk.BlockUntil(1)
	dst, other := make([]byte, 3), make([]byte, 3)
	rd := r.read(DemandFetch, "k", dst)
	ro := r.read(DemandFetch, "j", other)
	r.step(2) // the write and the other key's read sleep side by side
	waitOp(t, w, "write")
	waitOp(t, ro, "read of another key")
	wantQueueTime(t, "read of another key", ro, 0)
	select {
	case <-rd.Done():
		t.Fatal("read finished with the earlier write still in flight")
	default:
	}
	r.step(1)
	waitOp(t, rd, "read")
	if string(dst) != "new" {
		t.Fatalf("read %q, want the bytes written before it", dst)
	}
	wantQueueTime(t, "read", rd, opLatency)
}

// TestPromoteLiftsEarlierSameKeyOp: a prefetch parked behind a
// Migration-class delete lends it its class, and promoting the prefetch
// to DemandFetch takes the delete along — both pass a flush queued
// before them.
func TestPromoteLiftsEarlierSameKeyOp(t *testing.T) {
	r := newOrderRig(t, 1)
	r.put("k", []byte("old"))
	blocker := r.write(DemandFetch, "blocker", []byte{0})
	r.clk.BlockUntil(1)
	fl := r.write(Flush, "other", []byte{1})
	del := r.del(Migration, "k")
	rd := r.read(Prefetch, "k", make([]byte, 3))
	if del.Class() != Prefetch {
		t.Fatalf("delete at %v, want prefetch inherited at parking", del.Class())
	}
	r.e.Promote(rd, DemandFetch)
	if del.Class() != DemandFetch || rd.Class() != DemandFetch {
		t.Fatalf("after promote: delete %v, read %v, want demand-fetch for both", del.Class(), rd.Class())
	}
	r.step(1) // blocker; then the free delete, then the read sleeps
	r.step(1) // read; then the flush sleeps
	r.step(1)
	waitOp(t, blocker, "blocker")
	waitOp(t, del, "delete")
	waitOp(t, fl, "flush")
	if err := rd.Wait(); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("read after delete: %v, want ErrNotFound", err)
	}
	wantQueueTime(t, "delete", del, opLatency)
	wantQueueTime(t, "read", rd, opLatency)
	wantQueueTime(t, "flush", fl, 2*opLatency)
}

// TestVecReadWaitsForMemberWrite: a vectored read is ordered behind a
// pending write of any member, not just its first.
func TestVecReadWaitsForMemberWrite(t *testing.T) {
	r := newOrderRig(t, 2)
	r.put("a", []byte("aaa"))
	r.put("b", []byte("old"))
	w := r.write(Flush, "b", []byte("new"))
	r.clk.BlockUntil(1)
	dsts := [][]byte{make([]byte, 3), make([]byte, 3)}
	vec, err := r.e.SubmitReadVecClass(Prefetch, []string{"a", "b"}, dsts)
	if err != nil {
		t.Fatal(err)
	}
	if q := r.e.QueuedByClass(); q[Prefetch] != 0 {
		t.Fatalf("queues %v: the vectored read must park, not queue", q)
	}
	r.step(1)
	waitOp(t, w, "write")
	r.step(1) // member a
	r.step(1) // member b
	waitOp(t, vec, "vectored read")
	if string(dsts[0]) != "aaa" || string(dsts[1]) != "new" {
		t.Fatalf("vectored read got %q, %q", dsts[0], dsts[1])
	}
	wantQueueTime(t, "vectored read", vec, opLatency)
}

// TestCloseRunsParkedOps: Close with a chain parked behind an executing
// op runs the chain in order and returns; later submissions are refused.
func TestCloseRunsParkedOps(t *testing.T) {
	r := newOrderRig(t, 1)
	w1 := r.write(Flush, "k", []byte("one"))
	r.clk.BlockUntil(1)
	w2 := r.write(Flush, "k", []byte("two"))
	dst := make([]byte, 3)
	rd := r.read(Prefetch, "k", dst)
	closed := make(chan struct{})
	go func() {
		r.e.Close()
		close(closed)
	}()
	stop := make(chan struct{})
	go r.clk.Drive(stop)
	defer close(stop)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	select {
	case <-closed:
	case <-ctx.Done():
		t.Fatal("Close hung with parked ops")
	}
	for _, op := range []*Op{w1, w2, rd} {
		select {
		case <-op.Done():
			if op.Err() != nil {
				t.Errorf("%s %s: %v", op.Kind, op.Key, op.Err())
			}
		default:
			t.Fatalf("%s %s left incomplete by Close", op.Kind, op.Key)
		}
	}
	if string(dst) != "two" {
		t.Errorf("read %q, want the second write's bytes", dst)
	}
	if _, err := r.e.SubmitDelete(Flush, "k"); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("submit after Close: %v, want ErrEngineClosed", err)
	}
}
