package aio

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/datastates/mlpoffload/internal/storage"
)

func TestSubmitReadVecClass(t *testing.T) {
	tier := storage.NewMemTier("m")
	e := New(tier, Config{Workers: 2})
	defer e.Close()
	ctx := context.Background()
	const n = 5
	keys := make([]string, n)
	want := make([][]byte, n)
	dsts := make([][]byte, n)
	total := 0
	for i := range keys {
		keys[i] = fmt.Sprintf("sg%d", i)
		want[i] = bytes.Repeat([]byte{byte(i + 1)}, 100*(i+1))
		dsts[i] = make([]byte, len(want[i]))
		total += len(want[i])
		if err := tier.Write(ctx, keys[i], want[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Metrics().OpsDone
	op, err := e.SubmitReadVecClass(Prefetch, keys, dsts)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := range dsts {
		if !bytes.Equal(dsts[i], want[i]) {
			t.Fatalf("member %d differs", i)
		}
	}
	if op.Bytes != total {
		t.Fatalf("op.Bytes = %d, want batch total %d", op.Bytes, total)
	}
	if got := e.Metrics().OpsDone - before; got != 1 {
		t.Fatalf("batch accounted as %d ops, want 1", got)
	}
	if !strings.Contains(op.String(), "(+4)") {
		t.Fatalf("op.String() %q does not name the batch", op.String())
	}
}

func TestSubmitReadVecClassSingleDegradesToRead(t *testing.T) {
	tier := storage.NewMemTier("m")
	e := New(tier, Config{})
	defer e.Close()
	if err := tier.Write(context.Background(), "k", []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 4)
	op, err := e.SubmitReadVecClass(DemandFetch, []string{"k"}, [][]byte{dst})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Wait(); err != nil {
		t.Fatal(err)
	}
	if op.Key != "k" || !bytes.Equal(dst, []byte("abcd")) {
		t.Fatalf("degraded read wrong: key %q dst %q", op.Key, dst)
	}
}

func TestSubmitReadVecClassErrors(t *testing.T) {
	tier := storage.NewMemTier("m")
	e := New(tier, Config{})
	defer e.Close()
	if _, err := e.SubmitReadVecClass(Prefetch, []string{"a"}, nil); err == nil {
		t.Fatal("mismatched batch accepted")
	}
	if _, err := e.SubmitReadVecClass(Prefetch, nil, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	op, err := e.SubmitReadVecClass(Prefetch, []string{"missing", "also"}, [][]byte{make([]byte, 1), make([]byte, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Wait(); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("missing member: %v, want ErrNotFound", err)
	}
}
