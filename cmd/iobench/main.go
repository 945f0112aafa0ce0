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
// Codec throughput and ratio, file read and vectored-read throughput and
// per-op aio overhead are not measured here: bench/e2e's layer probes
// (tiercodec.probe_*, storage.probe_file_read*_mbps,
// aio.probe_op_overhead_us) report them on every traced run.
//
// Usage:
//
//	iobench                       # throttled in-memory tiers (Table-1/1000 rates)
//	iobench -dir /mnt/nvme        # a real directory (no throttle)
//	iobench -size 8388608 -ops 16
//	iobench -mixed                # checkpoint-vs-demand-fetch scheduler scenario
//	iobench -mixed -virtual       # ... on a virtual clock, in real milliseconds
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	mlpoffload "github.com/datastates/mlpoffload"
	"github.com/datastates/mlpoffload/internal/aio"
	"github.com/datastates/mlpoffload/internal/clock"
	"github.com/datastates/mlpoffload/internal/storage"
)

func main() {
	var (
		dir      = flag.String("dir", "", "benchmark a real directory instead of emulated tiers")
		size     = flag.Int("size", 4<<20, "object size in bytes")
		ops      = flag.Int("ops", 8, "objects per process")
		mixed    = flag.Bool("mixed", false, "run the mixed-priority scheduler scenario")
		fetches  = flag.Int("fetches", 64, "demand fetches per mixed-scenario mode")
		mixSize  = flag.Int("mixsize", 256<<10, "object size in the mixed scenario")
		mixBW    = flag.Float64("mixbw", 200e6, "emulated tier bandwidth for the mixed scenario (B/s)")
		mixDepth = flag.Int("mixdepth", 32, "queued checkpoint writes the background stream maintains")
		virtual  = flag.Bool("virtual", false, "run the mixed scenario on a virtual clock: tier pacing advances simulated time, so bandwidth-bound SLO runs finish in milliseconds")
	)
	flag.Parse()

	if *virtual && !*mixed {
		// The raw-throughput scenario measures real memory and device
		// speed; only the bandwidth-emulated mixed scenario is meaningful
		// on simulated time.
		fmt.Fprintln(os.Stderr, "iobench: -virtual requires -mixed")
		os.Exit(2)
	}
	if *mixed {
		runMixed(*fetches, *mixSize, *mixBW, *mixDepth, *virtual)
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
	Mode           string // "fifo" or "classed"
	DemandMeanMS   float64
	DemandP50MS    float64
	DemandP95MS    float64
	CheckpointMBps float64
	CheckpointOps  int64
}

// runMixed contends a background checkpoint stream against foreground
// demand fetches on one bandwidth-limited tier, in FIFO and in classed
// mode, and reports fetch latency and checkpoint throughput. With virtual
// set, each mode runs on its own self-advancing virtual clock: the
// throttled tier's pacing sleeps advance simulated time instantly, so the
// scenario completes in milliseconds of real time while the reported
// latencies stay in (simulated) tier-bandwidth terms.
func runMixed(fetches, size int, bw float64, depth int, virtual bool) {
	results := []mixedResult{
		mixedMode("fifo", fetches, size, bw, depth, virtual),
		mixedMode("classed", fetches, size, bw, depth, virtual),
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

func fmtBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}
