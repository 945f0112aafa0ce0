// Command iobench microbenchmarks storage tiers the way the paper's
// Figure 4 does: raw read/write throughput and per-process latency for
// 1, 2 and 4 concurrent processes, against real (throttled) tiers.
//
// It also measures the I/O scheduler itself: -mixed runs a contended
// scenario where a background checkpoint stream competes with foreground
// demand fetches on one tier, once with every operation in a single class
// (the pre-scheduler FIFO behaviour) and once with proper priority
// classes, reporting demand-fetch latency percentiles and checkpoint
// throughput for both.
//
// It also measures the tier-codec middleware: -codec moves
// optimizer-state-shaped objects through a bandwidth-limited tier with
// the codec off and with the given spec on, reporting the effective
// (raw-bytes-delivered) bandwidth both ways and the compression ratio —
// the effective-bandwidth multiplier compression buys on a throttled
// device.
//
// It also measures fetch coalescing: -seq runs a syscall-bound
// sequential-fetch scenario against a real directory — many small
// subgroup-sized objects read back in order, the update phase's storage
// access pattern — once with one aio op per object and once with runs
// of adjacent objects coalesced into single vectored aio ops, reporting
// per-mode throughput and op latency.
//
// Usage:
//
//	iobench                       # throttled in-memory tiers (Table-1/1000 rates)
//	iobench -dir /mnt/nvme        # a real directory (no throttle)
//	iobench -size 8388608 -ops 16
//	iobench -mixed                # checkpoint-vs-demand-fetch scheduler scenario
//	iobench -mixed -json          # ... as JSON (for BENCH_*.json tracking)
//	iobench -codec                # codec effective-bandwidth scenario
//	iobench -codec -json          # ... as JSON (for BENCH_*.json tracking)
//	iobench -seq                  # sequential-fetch fast-path scenario (temp dir)
//	iobench -seq -json            # ... as JSON (for BENCH_*.json tracking)
//
// The -json document schemas are documented in README.md ("iobench JSON
// schemas") and kept stable for the CI bench workflow.
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	mlpoffload "github.com/datastates/mlpoffload"
	"github.com/datastates/mlpoffload/internal/aio"
	"github.com/datastates/mlpoffload/internal/bufpool"
	"github.com/datastates/mlpoffload/internal/clock"
	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/tiercodec"
)

func main() {
	var (
		dir       = flag.String("dir", "", "benchmark a real directory instead of emulated tiers")
		size      = flag.Int("size", 4<<20, "object size in bytes")
		ops       = flag.Int("ops", 8, "objects per process")
		mixed     = flag.Bool("mixed", false, "run the mixed-priority scheduler scenario")
		jsonOut   = flag.Bool("json", false, "emit JSON instead of a table (mixed/codec scenarios)")
		fetches   = flag.Int("fetches", 64, "demand fetches per mixed-scenario mode")
		mixSize   = flag.Int("mixsize", 256<<10, "object size in the mixed scenario")
		mixBW     = flag.Float64("mixbw", 200e6, "emulated tier bandwidth for the mixed scenario (B/s)")
		mixDepth  = flag.Int("mixdepth", 32, "queued checkpoint writes the background stream maintains")
		virtual   = flag.Bool("virtual", false, "run the mixed scenario on a virtual clock: tier pacing advances simulated time, so bandwidth-bound SLO runs finish in milliseconds")
		codec     = flag.Bool("codec", false, "run the tier-codec effective-bandwidth scenario")
		codecSpec = flag.String("codecspec", "flate+crc", "codec spec for the -codec scenario")
		codecSize = flag.Int("codecsize", 4<<20, "object size in the codec scenario")
		codecOps  = flag.Int("codecops", 8, "objects per direction in the codec scenario")
		codecBW   = flag.Float64("codecbw", 48e6, "emulated tier bandwidth for the codec scenario (B/s)")
		seq       = flag.Bool("seq", false, "run the sequential-fetch scenario (per-object vs coalesced vectored reads)")
		seqSize   = flag.Int("seqsize", 16<<10, "object size in the -seq scenario")
		seqObjs   = flag.Int("seqobjs", 64, "objects in the -seq scenario")
		seqPasses = flag.Int("seqpasses", 8, "read passes over the object set in the -seq scenario")
		seqBatch  = flag.Int("seqbatch", 4, "coalesced run length in the -seq scenario")
	)
	flag.Parse()

	if *virtual && !*mixed {
		// The codec and raw-throughput scenarios measure real CPU and
		// memory speed; only the bandwidth-emulated mixed scenario is
		// meaningful on simulated time.
		fmt.Fprintln(os.Stderr, "iobench: -virtual requires -mixed")
		os.Exit(2)
	}
	if *mixed {
		runMixed(*fetches, *mixSize, *mixBW, *mixDepth, *jsonOut, *virtual)
		return
	}
	if *codec {
		runCodec(*codecSpec, *codecSize, *codecOps, *codecBW, *jsonOut)
		return
	}
	if *seq {
		runSeq(*dir, *seqSize, *seqObjs, *seqPasses, *seqBatch, *jsonOut)
		return
	}

	type device struct {
		name string
		tier mlpoffload.Tier
	}
	var devices []device
	if *dir != "" {
		t, err := mlpoffload.NewFileTier("dir", *dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
			os.Exit(1)
		}
		devices = []device{{"dir", t}}
	} else {
		nvme := mlpoffload.NewThrottledTier(mlpoffload.NewMemTier("nvme"),
			mlpoffload.ThrottleSpec{ReadBW: 6.9e6 * 10, WriteBW: 5.3e6 * 10, InterferenceAlpha: 0.08})
		pfs := mlpoffload.NewThrottledTier(mlpoffload.NewMemTier("pfs"),
			mlpoffload.ThrottleSpec{ReadBW: 3.6e6 * 10, WriteBW: 3.6e6 * 10, InterferenceAlpha: 0.05})
		devices = []device{{"nvme (local)", nvme}, {"pfs (remote)", pfs}}
	}

	fmt.Printf("%-14s %-6s %-16s %-16s %-14s %-14s\n",
		"device", "procs", "read (MB/s)", "write (MB/s)", "read (s/GB)", "write (s/GB)")
	for _, dev := range devices {
		for _, procs := range []int{1, 2, 4} {
			w := run(dev.tier, procs, *size, *ops, false)
			r := run(dev.tier, procs, *size, *ops, true)
			fmt.Printf("%-14s %-6d %-16.1f %-16.1f %-14.3f %-14.3f\n",
				dev.name, procs, r/1e6, w/1e6, 1e9/r*float64(procs), 1e9/w*float64(procs))
		}
	}
}

// run measures aggregate throughput (bytes/second) for procs concurrent
// processes each moving ops objects of size bytes.
func run(tier mlpoffload.Tier, procs, size, ops int, read bool) float64 {
	ctx := context.Background()
	payload := make([]byte, size)
	// Pre-populate for reads.
	if read {
		for p := 0; p < procs; p++ {
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("bench-%d-%d", p, i)
				if err := tier.Write(ctx, key, payload); err != nil {
					fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
					os.Exit(1)
				}
			}
		}
	}
	var wg sync.WaitGroup
	//mlpvet:allow clockcheck raw-throughput scenario measures real devices on real time
	start := time.Now()
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			buf := make([]byte, size)
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("bench-%d-%d", p, i)
				var err error
				if read {
					err = tier.Read(ctx, key, buf)
				} else {
					err = tier.Write(ctx, key, buf)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
					os.Exit(1)
				}
			}
		}(p)
	}
	wg.Wait()
	//mlpvet:allow clockcheck raw-throughput scenario measures real devices on real time
	elapsed := time.Since(start).Seconds()
	return float64(procs*ops*size) / elapsed
}

// mixedResult is one mode's measurements in the mixed-priority scenario.
type mixedResult struct {
	Mode           string  `json:"mode"` // "fifo" or "classed"
	DemandMeanMS   float64 `json:"demand_mean_ms"`
	DemandP50MS    float64 `json:"demand_p50_ms"`
	DemandP95MS    float64 `json:"demand_p95_ms"`
	CheckpointMBps float64 `json:"checkpoint_mbps"`
	CheckpointOps  int64   `json:"checkpoint_ops"`
}

// mixedReport is the -mixed -json document, shaped for BENCH_*.json
// tracking (stable keys, flat numbers).
type mixedReport struct {
	Benchmark string `json:"benchmark"`
	Config    struct {
		ObjectBytes int     `json:"object_bytes"`
		TierBW      float64 `json:"tier_bw_bytes_per_sec"`
		Fetches     int     `json:"fetches"`
		QueueDepth  int     `json:"queue_depth"`
		Virtual     bool    `json:"virtual"` // latencies are simulated time
	} `json:"config"`
	Results    []mixedResult `json:"results"`
	SpeedupP95 float64       `json:"demand_p95_speedup"`
}

// runMixed contends a background checkpoint stream against foreground
// demand fetches on one bandwidth-limited tier, in FIFO and in classed
// mode, and reports fetch latency and checkpoint throughput. With virtual
// set, each mode runs on its own self-advancing virtual clock: the
// throttled tier's pacing sleeps advance simulated time instantly, so the
// scenario completes in milliseconds of real time while the reported
// latencies stay in (simulated) tier-bandwidth terms.
func runMixed(fetches, size int, bw float64, depth int, jsonOut, virtual bool) {
	results := []mixedResult{
		mixedMode("fifo", fetches, size, bw, depth, virtual),
		mixedMode("classed", fetches, size, bw, depth, virtual),
	}
	if jsonOut {
		var rep mixedReport
		// Distinct report name per clock mode: benchmerge keys reports by
		// name, and the CI bench job feeds it both runs in one merge.
		rep.Benchmark = "iobench-mixed-priority"
		if virtual {
			rep.Benchmark = "iobench-mixed-priority-virtual"
		}
		rep.Config.ObjectBytes = size
		rep.Config.TierBW = bw
		rep.Config.Fetches = fetches
		rep.Config.QueueDepth = depth
		rep.Config.Virtual = virtual
		rep.Results = results
		if results[1].DemandP95MS > 0 {
			rep.SpeedupP95 = results[0].DemandP95MS / results[1].DemandP95MS
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("mixed-priority: %d demand fetches of %s vs a saturated checkpoint stream (tier %.0f MB/s)\n",
		fetches, fmtBytes(size), bw/1e6)
	fmt.Printf("%-9s %-16s %-16s %-16s %-16s\n",
		"mode", "demand p50 (ms)", "demand p95 (ms)", "demand mean (ms)", "checkpoint MB/s")
	for _, r := range results {
		fmt.Printf("%-9s %-16.2f %-16.2f %-16.2f %-16.1f\n",
			r.Mode, r.DemandP50MS, r.DemandP95MS, r.DemandMeanMS, r.CheckpointMBps)
	}
	if results[1].DemandP95MS > 0 {
		fmt.Printf("note: p95 demand-fetch latency %.1fx lower with priority classes\n",
			results[0].DemandP95MS/results[1].DemandP95MS)
	}
}

// mixedMode runs one mode of the scenario. In "fifo" mode the checkpoint
// stream submits at DemandFetch class, reproducing the old single-queue
// head-of-line blocking; in "classed" mode it submits at Checkpoint class
// and the scheduler keeps the fetches ahead of it.
//
// With virtual set, the scenario runs on a driven manual clock
// (clock.NewVirtual + Drive): tier-pacing sleeps park their goroutines
// until the driver advances simulated time to the earliest pending
// deadline, so concurrent transfers overlap in virtual time exactly as
// the shared token bucket dictates and the whole run needs no real
// waiting. (The self-advancing clock would be wrong here: every sleeper
// would advance the shared clock independently, double-counting
// concurrent transfers and never building a backlog.)
func mixedMode(mode string, fetches, size int, bw float64, depth int, virtual bool) mixedResult {
	var clk clock.Clock = clock.Wall()
	if virtual {
		v := clock.NewVirtual()
		stopDrive := make(chan struct{})
		go v.Drive(stopDrive)
		defer close(stopDrive)
		clk = v
	}
	tier := storage.NewThrottled(storage.NewMemTier("disk"), storage.ThrottleConfig{
		ReadBW: bw, WriteBW: bw, ReadBurst: float64(size), WriteBurst: float64(size),
		Clock: clk,
	})
	eng := aio.New(tier, aio.Config{Workers: 2, QueueDepth: depth, Clock: clk})
	defer eng.Close()

	payload := make([]byte, size)
	for i := 0; i < fetches; i++ {
		if err := eng.WriteSync(fmt.Sprintf("state-%d", i), payload); err != nil {
			fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
			os.Exit(1)
		}
	}
	eng.Drain()

	ckptClass := aio.Checkpoint
	if mode == "fifo" {
		ckptClass = aio.DemandFetch
	}

	// Background checkpoint stream: keep the queue saturated until told
	// to stop, then let in-flight writes finish.
	var ckptBytes atomic.Int64
	var ckptOps atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, size)
		var pending []*aio.Op
		i := 0
		for {
			select {
			case <-stop:
				for _, op := range pending {
					//mlpvet:allow aioop drain on shutdown; write errors would already have surfaced on the next submit
					_ = op.Wait()
				}
				return
			default:
			}
			op, err := eng.SubmitWriteClass(ckptClass, fmt.Sprintf("ckpt-%d", i%depth), buf)
			if err != nil {
				return
			}
			pending = append(pending, op)
			ckptBytes.Add(int64(size))
			ckptOps.Add(1)
			i++
			if len(pending) >= depth {
				//mlpvet:allow aioop backpressure only: the stream waits for queue room, a failed write is measured not handled
				_ = pending[0].Wait()
				pending = pending[1:]
			}
		}
	}()

	// saturated waits until the background stream has the storm queued up
	// again, so every fetch contends with a full checkpoint queue. Without
	// this the virtual-clock run would finish the foreground before the
	// background goroutine ever got scheduled, and there would be nothing
	// to measure.
	// The stream keeps `depth` writes pending; two of those run on the
	// workers and one may sit popped-but-unrefilled, so the queue hovers
	// just under depth-2 — wait for depth-4 to be robustly behind it.
	saturated := func() {
		waitBacklog(clk, func() int { return eng.QueuedByClass()[ckptClass] },
			depth-4, 500*time.Millisecond)
	}

	// Foreground: sequential demand fetches, each latency measured from
	// submission (queueing included — that is what the scheduler fixes).
	dst := make([]byte, size)
	lat := make([]float64, 0, fetches)
	start := clk.Now()
	for i := 0; i < fetches; i++ {
		saturated()
		t0 := clk.Now()
		op, err := eng.SubmitReadClass(aio.DemandFetch, fmt.Sprintf("state-%d", i), dst)
		if err == nil {
			err = op.Wait()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
			os.Exit(1)
		}
		lat = append(lat, clk.Since(t0).Seconds()*1e3)
	}
	elapsed := clk.Since(start).Seconds()
	close(stop)
	wg.Wait()

	sort.Float64s(lat)
	mean := 0.0
	for _, l := range lat {
		mean += l
	}
	mean /= float64(len(lat))
	return mixedResult{
		Mode:           mode,
		DemandMeanMS:   mean,
		DemandP50MS:    lat[len(lat)/2],
		DemandP95MS:    lat[len(lat)*95/100],
		CheckpointMBps: float64(ckptBytes.Load()) / elapsed / 1e6,
		CheckpointOps:  ckptOps.Load(),
	}
}

// gateTick is waitBacklog's poll interval on a virtual clock: each probe
// of the backlog advances the deadline by one tick of simulated time, so
// the gate's timeout is measured on the scenario's own clock.
const gateTick = 100 * time.Microsecond

// waitBacklog polls backlog until it reaches want or timeout elapses on
// clk, reporting whether the backlog arrived. On the wall clock it spins
// with Gosched exactly as before — coordination, not measurement. On a
// virtual clock it sleeps gateTick per probe: the deadline then counts
// simulated time, so the gate is deterministic under any machine load,
// and the sleep parks the goroutine so the clock driver can advance past
// a stream that never builds the backlog instead of deadlocking the run.
func waitBacklog(clk clock.Clock, backlog func() int, want int, timeout time.Duration) bool {
	deadline := clk.Now().Add(timeout)
	for backlog() < want {
		if !clk.Now().Before(deadline) {
			return false
		}
		if clock.IsWall(clk) {
			runtime.Gosched()
		} else {
			clk.Sleep(gateTick)
		}
	}
	return true
}

// codecResult is one mode's measurements in the codec scenario.
type codecResult struct {
	Mode       string  `json:"mode"` // "off" or the codec spec
	WriteMBps  float64 `json:"write_mbps"`
	ReadMBps   float64 `json:"read_mbps"`
	Ratio      float64 `json:"compression_ratio"` // raw bytes / encoded bytes (1 with codec off)
	Bypassed   int64   `json:"bypassed_objects"`
	WireMBytes float64 `json:"wire_mbytes"` // encoded megabytes actually moved
}

// codecReport is the -codec -json document, shaped for BENCH_*.json
// tracking (stable keys, flat numbers).
type codecReport struct {
	Benchmark string `json:"benchmark"`
	Config    struct {
		ObjectBytes int     `json:"object_bytes"`
		TierBW      float64 `json:"tier_bw_bytes_per_sec"`
		Ops         int     `json:"ops"`
		Codec       string  `json:"codec"`
	} `json:"config"`
	Results      []codecResult `json:"results"`
	ReadSpeedup  float64       `json:"effective_read_speedup"`
	WriteSpeedup float64       `json:"effective_write_speedup"`
}

// statePayload synthesizes an optimizer-state-shaped object: normally
// distributed FP32 values around a common scale — clustered exponents,
// varied mantissas, the distribution subgroup objects actually have.
func statePayload(size int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, size)
	n := size / 4
	for i := 0; i < n; i++ {
		v := float32(0.25 + rng.NormFloat64()*0.01)
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	rng.Read(out[4*n:])
	return out
}

// runCodec measures effective tier bandwidth with the codec off and on:
// raw bytes delivered per second of device time, against one
// bandwidth-limited tier. The codec mode's win on a throttled device is
// its compression ratio minus codec CPU.
func runCodec(spec string, size, ops int, bw float64, jsonOut bool) {
	parsed, err := mlpoffload.ParseCodecSpec(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iobench: -codecspec %q: %v\n", spec, err)
		os.Exit(1)
	}
	if !parsed.Enabled() {
		fmt.Fprintf(os.Stderr, "iobench: the -codec scenario needs an enabled -codecspec (e.g. flate+crc), got %q\n", spec)
		os.Exit(1)
	}
	payload := statePayload(size, 42)
	measure := func(wrap bool) codecResult {
		ctx := context.Background()
		var tier storage.Tier = storage.NewThrottled(storage.NewMemTier("disk"), storage.ThrottleConfig{
			ReadBW: bw, WriteBW: bw, ReadBurst: 64 << 10, WriteBurst: 64 << 10,
		})
		res := codecResult{Mode: "off"}
		var ct *tiercodec.Tier
		if wrap {
			ct, err = tiercodec.New(tier, parsed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
				os.Exit(1)
			}
			tier = ct
			res.Mode = parsed.String()
		}
		//mlpvet:allow clockcheck codec scenario measures real codec CPU against real throttle time
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			if err := tier.Write(ctx, fmt.Sprintf("obj-%d", i), payload); err != nil {
				fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
				os.Exit(1)
			}
		}
		//mlpvet:allow clockcheck codec scenario measures real codec CPU against real throttle time
		res.WriteMBps = float64(ops*size) / time.Since(t0).Seconds() / 1e6
		dst := make([]byte, size)
		//mlpvet:allow clockcheck codec scenario measures real codec CPU against real throttle time
		t0 = time.Now()
		for i := 0; i < ops; i++ {
			if err := tier.Read(ctx, fmt.Sprintf("obj-%d", i), dst); err != nil {
				fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
				os.Exit(1)
			}
		}
		//mlpvet:allow clockcheck codec scenario measures real codec CPU against real throttle time
		res.ReadMBps = float64(ops*size) / time.Since(t0).Seconds() / 1e6
		res.Ratio = 1
		if ct != nil {
			st := ct.CodecStats()
			res.Ratio = st.WriteRatio
			res.Bypassed = st.Bypassed
			res.WireMBytes = float64(st.EncodedBytesOut+st.EncodedBytesIn) / 1e6
		} else {
			res.WireMBytes = float64(2*ops*size) / 1e6
		}
		return res
	}
	results := []codecResult{measure(false), measure(true)}
	if jsonOut {
		var rep codecReport
		rep.Benchmark = "iobench-codec"
		rep.Config.ObjectBytes = size
		rep.Config.TierBW = bw
		rep.Config.Ops = ops
		rep.Config.Codec = parsed.String()
		rep.Results = results
		if results[0].ReadMBps > 0 {
			rep.ReadSpeedup = results[1].ReadMBps / results[0].ReadMBps
		}
		if results[0].WriteMBps > 0 {
			rep.WriteSpeedup = results[1].WriteMBps / results[0].WriteMBps
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("codec: %d objects of %s each way over a %.0f MB/s tier\n",
		ops, fmtBytes(size), bw/1e6)
	fmt.Printf("%-12s %-16s %-16s %-12s %-10s\n",
		"mode", "write (MB/s)", "read (MB/s)", "ratio", "bypassed")
	for _, r := range results {
		fmt.Printf("%-12s %-16.1f %-16.1f %-12.2f %-10d\n",
			r.Mode, r.WriteMBps, r.ReadMBps, r.Ratio, r.Bypassed)
	}
	if results[0].ReadMBps > 0 {
		fmt.Printf("note: %.2fx effective read, %.2fx effective write bandwidth with %s\n",
			results[1].ReadMBps/results[0].ReadMBps,
			results[1].WriteMBps/results[0].WriteMBps, parsed)
	}
}

// seqResult is one mode's measurements in the sequential-fetch scenario.
type seqResult struct {
	Mode     string  `json:"mode"` // "per-object" or "coalesced"
	ReadMBps float64 `json:"read_mbps"`
	Ops      int     `json:"ops"`       // aio ops submitted (coalescing shrinks this)
	AvgOpUS  float64 `json:"avg_op_us"` // mean submit-to-complete latency per op
}

// seqReport is the -seq -json document, shaped for BENCH_*.json tracking
// (stable keys, flat numbers).
type seqReport struct {
	Benchmark string `json:"benchmark"`
	Config    struct {
		ObjectBytes int `json:"object_bytes"`
		Objects     int `json:"objects"`
		Passes      int `json:"passes"`
		Batch       int `json:"batch"`
	} `json:"config"`
	Results         []seqResult `json:"results"`
	CoalesceSpeedup float64     `json:"coalesce_speedup"`
}

// runSeq measures the syscall-bound sequential-fetch pattern — the update
// phase reading many small subgroup objects back in commit order — in
// two modes over a real directory: one aio op per object, and runs of
// `batch` adjacent objects coalesced into single vectored aio ops.
// Objects are small enough that per-op overhead (queue transitions,
// scheduling decisions) is a real fraction of each read, which is
// exactly what coalescing removes.
func runSeq(dir string, size, objs, passes, batch int, jsonOut bool) {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "iobench-seq-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
			os.Exit(1)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	if batch < 2 {
		batch = 2
	}
	results := []seqResult{
		seqMode(dir, "per-object", size, objs, passes, 1),
		seqMode(dir, "coalesced", size, objs, passes, batch),
	}
	if jsonOut {
		var rep seqReport
		rep.Benchmark = "iobench-seq-fetch"
		rep.Config.ObjectBytes = size
		rep.Config.Objects = objs
		rep.Config.Passes = passes
		rep.Config.Batch = batch
		rep.Results = results
		if results[0].ReadMBps > 0 {
			rep.CoalesceSpeedup = results[1].ReadMBps / results[0].ReadMBps
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("seq-fetch: %d passes over %d objects of %s\n",
		passes, objs, fmtBytes(size))
	fmt.Printf("%-12s %-14s %-10s %-14s\n", "mode", "read (MB/s)", "aio ops", "avg op (us)")
	for _, r := range results {
		fmt.Printf("%-12s %-14.1f %-10d %-14.1f\n", r.Mode, r.ReadMBps, r.Ops, r.AvgOpUS)
	}
	if results[0].ReadMBps > 0 {
		fmt.Printf("note: %.2fx with coalescing\n", results[1].ReadMBps/results[0].ReadMBps)
	}
}

// seqMode runs one sequential-fetch mode: its own subdirectory, its own
// FileTier and its own aio engine, reading the object set back `passes`
// times in key order — per object for batch 1, in vectored runs of
// `batch` otherwise.
func seqMode(dir, mode string, size, objs, passes, batch int) seqResult {
	sub := filepath.Join(dir, mode)
	if err := os.MkdirAll(sub, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
		os.Exit(1)
	}
	tier, err := storage.NewFileTier(mode, sub)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
		os.Exit(1)
	}
	eng := aio.New(tier, aio.Config{Workers: 2, QueueDepth: 2 * batch})
	defer eng.Close()

	payload := statePayload(size, 7)
	key := func(i int) string { return fmt.Sprintf("sg-%04d", i) }
	for i := 0; i < objs; i++ {
		if err := eng.WriteSync(key(i), payload); err != nil {
			fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
			os.Exit(1)
		}
	}
	eng.Drain()

	dsts := make([][]byte, batch)
	for i := range dsts {
		dsts[i] = bufpool.Get(size)
	}
	keys := make([]string, batch)
	onePass := func() int {
		ops := 0
		for i := 0; i < objs; i += batch {
			n := batch
			if i+n > objs {
				n = objs - i
			}
			var op *aio.Op
			var err error
			if n == 1 {
				op, err = eng.SubmitReadClass(aio.DemandFetch, key(i), dsts[0])
			} else {
				for j := 0; j < n; j++ {
					keys[j] = key(i + j)
				}
				op, err = eng.SubmitReadVecClass(aio.DemandFetch, keys[:n], dsts[:n])
			}
			if err == nil {
				err = op.Wait()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
				os.Exit(1)
			}
			ops++
		}
		return ops
	}
	// One untimed pass settles writeback from this mode's own population
	// phase, warms the page cache, and faults in the pooled buffers;
	// then each timed pass is measured on its own and the fastest one is
	// reported — per-op overhead is the quantity under test, and the
	// minimum discards GC pauses and writeback interference that would
	// otherwise dominate run-to-run variance.
	onePass()
	nops := 0
	best := math.Inf(1)
	for p := 0; p < passes; p++ {
		//mlpvet:allow clockcheck seq scenario measures real syscall and filesystem time
		start := time.Now()
		ops := onePass()
		//mlpvet:allow clockcheck seq scenario measures real syscall and filesystem time
		if secs := time.Since(start).Seconds(); secs < best {
			best = secs
		}
		nops += ops
	}
	elapsed := best * float64(passes)
	for i := range dsts {
		bufpool.Put(dsts[i])
	}
	return seqResult{
		Mode:     mode,
		ReadMBps: float64(passes*objs*size) / elapsed / 1e6,
		Ops:      nops,
		AvgOpUS:  elapsed / float64(nops) * 1e6,
	}
}

func fmtBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}
