package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"github.com/datastates/mlpoffload/internal/engine"
	"github.com/datastates/mlpoffload/internal/fp16"
	"github.com/datastates/mlpoffload/internal/optim"
)

// tableLen is the gradient table size. The table is much smaller than a
// shard, so filling a shard's gradients is a handful of memcpys: the
// backward phase then measures the engine's D2H/encode/flush work and
// not the stand-in for the GPU.
const tableLen = 1 << 20

// inputs is everything a workload derives from -seed. The engine is
// handed the generated gradients and initial parameters, never the seed.
type inputs struct {
	table []float32
}

func newInputs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	t := make([]float32, tableLen)
	for i := range t {
		t[i] = (rng.Float32() - 0.5) * 0.02
	}
	return &inputs{table: t}
}

// gradStart is the table position of a rank's parameter 0 at iteration
// iter: the table rotates by an odd stride every iteration and ranks are
// offset against each other, so no two (rank, iter) pairs share gradients.
func gradStart(rank, iter int) int {
	return (iter*40503 + rank*7919) % tableLen
}

// fillGrad writes the gradients of parameters [base, base+len(out)) of
// rank at iteration iter.
func (in *inputs) fillGrad(rank, iter int, base int64, out []float32) {
	pos := int((int64(gradStart(rank, iter)) + base) % tableLen)
	for len(out) > 0 {
		n := copy(out, in.table[pos:])
		out = out[n:]
		pos = 0
	}
}

// initParam is the initial FP32 master value of a rank's parameter i.
func (in *inputs) initParam(rank int, i int64) float32 {
	return 25 * in.table[(i*3+int64(rank)*104729+tableLen/2)%tableLen]
}

// batchGrad is the harness's "GPU": the engine.BatchGradFn of one rank,
// with a gradfn span around each call when rec is recording.
func (in *inputs) batchGrad(rank int, rec *recorder) engine.BatchGradFn {
	return func(iter int, _ []fp16.Bits, out []float32) error {
		end := rec.begin(kindGradFn, kindGradFn, "")
		in.fillGrad(rank, iter, 0, out)
		end(4*int64(len(out)), nil)
		return nil
	}
}

// refChunk bounds the reference loop's working set: Adam is elementwise,
// so the un-offloaded reference walks the shard chunk by chunk with a few
// MB of state instead of holding a second copy of the whole shard.
const refChunk = 1 << 18

// chunk is refChunk parameters of one rank (fewer at a shard's end).
type chunk struct {
	rank int
	lo   int64
	n    int
}

func chunksOf(ranks int, paramsPerRank int64) []chunk {
	var out []chunk
	for r := 0; r < ranks; r++ {
		for lo := int64(0); lo < paramsPerRank; lo += refChunk {
			out = append(out, chunk{r, lo, int(min(refChunk, paramsPerRank-lo))})
		}
	}
	return out
}

// referenceSums is the output check's ground truth: a plain, un-offloaded
// optim.StepFP16 loop over the same initial parameters and gradients —
// the single-worker baseline no tier, cache or pipeline touches — as one
// FNV-1a sum of the final FP32 parameters per chunk.
func (in *inputs) referenceSums(ranks int, paramsPerRank int64, iters int) []uint64 {
	chunks := chunksOf(ranks, paramsPerRank)
	sums := make([]uint64, len(chunks))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sums[i] = fnvF32(in.referenceChunk(chunks[i], iters))
			}
		}()
	}
	for i := range chunks {
		next <- i
	}
	close(next)
	wg.Wait()
	return sums
}

func (in *inputs) referenceChunk(c chunk, iters int) []float32 {
	p := make([]float32, c.n)
	for j := range p {
		p[j] = in.initParam(c.rank, c.lo+int64(j))
	}
	st := &optim.State{Params: p, M: make([]float32, c.n), V: make([]float32, c.n)}
	g32 := make([]float32, c.n)
	g16 := make([]fp16.Bits, c.n)
	h := optim.DefaultHyper()
	for it := 0; it < iters; it++ {
		in.fillGrad(c.rank, it, c.lo, g32)
		fp16.Encode(g16, g32)
		optim.StepFP16(st, g16, h, it+1)
	}
	return p
}

// gatheredSums cuts gathered parameters (rank-major, as GatherParams and
// GatherAll return them) at the reference's chunk boundaries.
func gatheredSums(all []float32, ranks int, paramsPerRank int64) []uint64 {
	chunks := chunksOf(ranks, paramsPerRank)
	sums := make([]uint64, len(chunks))
	for i, c := range chunks {
		off := int64(c.rank)*paramsPerRank + c.lo
		sums[i] = fnvF32(all[off : off+int64(c.n)])
	}
	return sums
}

// fnvF32 is the FNV-1a hash of v's FP32 bit patterns, little-endian.
func fnvF32(v []float32) uint64 {
	h := fnv.New64a()
	var buf [4 * 1024]byte
	for len(v) > 0 {
		n := min(len(v), len(buf)/4)
		for i, f := range v[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(f))
		}
		_, _ = h.Write(buf[:4*n]) // hash.Hash.Write never fails
		v = v[n:]
	}
	return h.Sum64()
}

// foldSums reduces per-chunk sums to the one digest a report carries.
func foldSums(sums []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range sums {
		binary.LittleEndian.PutUint64(b[:], s)
		_, _ = h.Write(b[:]) // hash.Hash.Write never fails
	}
	return h.Sum64()
}
