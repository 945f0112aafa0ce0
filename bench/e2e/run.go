package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/datastates/mlpoffload/internal/checkpoint"
	"github.com/datastates/mlpoffload/internal/engine"
	"github.com/datastates/mlpoffload/internal/tierlock"
)

// runOpts is one run of one workload.
type runOpts struct {
	wl   workload
	sc   scale
	seed int64
	// The timed window lasts seconds, or exactly iters iterations when
	// iters > 0.
	seconds float64
	iters   int
	trace   bool
	dir     string // parent of the tier directories
	outDir  string // where a traced run writes <workload>.trace.json
	wrap    wrapTier
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line: exactly the keys the
// driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// An untraced run sets the system up setupRuns times and reports the
// median, so one cold start does not decide setup_s.
const setupRuns = 5

// A traced run keeps the recorder off for the first quarter of its
// window; the ratio of the mean iteration after and before it is switched
// on is the tracing overhead. The first recorded iteration is a lead-in
// and is not counted: transfers already in flight when recording starts
// are missing from its spans.
type iterKind int

const (
	untraced iterKind = iota
	leadIn
	traced
)

// iterSample is one timed iteration.
type iterSample struct {
	wall      time.Duration
	kind      iterKind
	res       stepResult
	flips     int // engines whose plan ratio changed over this iteration
	misplaced int
}

// window is everything observed between the first and the last timed
// iteration of a run.
type window struct {
	elapsed time.Duration
	iters   []iterSample
	ckpts   []time.Duration
	mans    []checkpoint.Manifest

	mem0, mem1   runtime.MemStats
	lock0, lock1 map[string]tierlock.Stats
	mig0, mig1   engine.MigrationStats
	retries      int64
}

// ops counts operations: an iteration, a checkpoint, a restore or an
// output check is one operation each.
type ops struct {
	attempted, failed int
	errs              []error
}

func (o *ops) do(what string, err error) bool {
	o.attempted++
	if err != nil {
		o.failed++
		o.errs = append(o.errs, fmt.Errorf("%s: %w", what, err))
		fmt.Fprintf(os.Stderr, "e2e: FAILED %s: %v\n", what, err)
	}
	return err == nil
}

// runOne sets a workload up, measures it, checks its output and tears it
// down. Engine errors become failed operations in the result; the error
// return is for the harness's own trouble (no directory, no trace file).
func runOne(o runOpts) (result, error) {
	in := newInputs(o.seed)
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	var op ops
	m := map[string]metric{}
	res := func() result {
		return result{Correct: op.failed == 0, Attempted: op.attempted, Failed: op.failed, Metrics: m}
	}

	t0 := wall.Now()
	r, err := newRig(o.wl, o.sc, in, rec, o.dir, o.wrap)
	setups := []float64{wall.Now().Sub(t0).Seconds()}
	if !op.do("set-up", err) {
		return res(), nil
	}
	defer r.close() // error paths; closing twice is harmless

	w := measure(r, o, &op)
	peakRSS := peakRSSMiB() // before the check allocates a gathered copy of the shard

	var restoreWall time.Duration
	if len(w.iters) > 0 && op.failed == 0 {
		ref := in.referenceSums(o.wl.ranks, o.sc.params/int64(o.wl.ranks), r.iter)
		check := func(what string, got []float32, err error) {
			if err == nil {
				err = compareSums(gatheredSums(got, o.wl.ranks, o.sc.params/int64(o.wl.ranks)), ref)
			}
			op.do(what, err)
		}
		got, err := r.gather()
		check("output check", got, err)
		if o.wl.ckptEvery > 0 && len(w.mans) > 0 && op.failed == 0 {
			// The window ends on a checkpoint, so the restored engine
			// must match the same reference.
			rec.enable(o.trace)
			end := rec.beginRoot(kindRestore)
			t := wall.Now()
			got, err := r.restoreLast(context.Background())
			restoreWall = wall.Now().Sub(t)
			end(err)
			if op.do("restore", err) {
				check("output check after restore", got, nil)
			}
		}
	}
	if err := r.close(); err != nil {
		return res(), fmt.Errorf("tear-down: %w", err)
	}

	if !o.trace {
		for i := 1; i < setupRuns && op.failed == 0; i++ {
			// Collect the previous rig first, so that every set-up starts
			// from the same heap and none pays for its predecessor's
			// garbage (measured: 0.24-0.55 s without, 0.28-0.29 s with).
			runtime.GC()
			t0 := wall.Now()
			r2, err := newRig(o.wl, o.sc, in, nil, o.dir, o.wrap)
			setups = append(setups, wall.Now().Sub(t0).Seconds())
			if !op.do("set-up", err) {
				break
			}
			if err := r2.close(); err != nil {
				return res(), fmt.Errorf("tear-down: %w", err)
			}
		}
		endToEnd(m, w, median(setups), peakRSS)
		return res(), nil
	}

	spans := rec.snapshot()
	perLayer(m, r, w, spans, restoreWall)
	if err := probes(m, o, in); err != nil {
		return res(), fmt.Errorf("layer probes: %w", err)
	}
	if o.outDir != "" {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return res(), err
		}
		if err := writeChromeTrace(filepath.Join(o.outDir, o.wl.name+".trace.json"), spans); err != nil {
			return res(), err
		}
	}
	return res(), nil
}

// measure runs the timed window: a closed loop, one client, the next
// iteration issued when the previous one returns.
func measure(r *rig, o runOpts, op *ops) *window {
	w := &window{lock0: lockStats(r), mig0: migStats(r)}
	ratios := planRatios(r)
	// The window ends on a whole period: a checkpoint interval where the
	// workload checkpoints (so the last checkpoint holds the final state
	// and every window has the same share of them), otherwise a pair of
	// iterations, one of each subgroup order.
	period := 2
	if o.wl.ckptEvery > 0 {
		period = o.wl.ckptEvery
	}
	runtime.GC()
	runtime.ReadMemStats(&w.mem0)
	start := wall.Now()
	recordFrom := -1 // index of the lead-in iteration, once recording is on
	for k := 0; ; k++ {
		elapsed := wall.Now().Sub(start).Seconds()
		if o.iters > 0 {
			if k >= o.iters {
				break
			}
		} else if k%period == 0 && k > 0 && elapsed >= o.seconds {
			break
		}
		if o.trace && recordFrom < 0 && ((o.iters > 0 && k >= max(1, o.iters/4)) || (o.iters == 0 && elapsed >= o.seconds/4)) {
			recordFrom = k
			r.rec.enable(true)
		}
		kind := untraced
		if recordFrom >= 0 {
			kind = min(iterKind(k-recordFrom)+leadIn, traced)
		}
		end := r.rec.beginRoot(kindIter)
		t := wall.Now()
		sr, err := r.step()
		d := wall.Now().Sub(t)
		end(err)
		if !op.do(fmt.Sprintf("iteration %d", r.iter), err) {
			// The rest of the window cannot run; count what it would
			// have attempted as failed too.
			left := o.iters - k - 1
			if o.iters == 0 && k > 0 {
				spent := wall.Now().Sub(start).Seconds()
				left = int((o.seconds - spent) / (spent / float64(k)))
			}
			op.attempted += max(left, 0)
			op.failed += max(left, 0)
			break
		}
		s := iterSample{wall: d, kind: kind, res: sr}
		now := planRatios(r)
		for i := range now {
			if now[i] != ratios[i] {
				s.flips++
			}
		}
		ratios = now
		for _, e := range r.engines() {
			s.misplaced += e.MisplacedSubgroups()
		}
		w.iters = append(w.iters, s)
		if o.wl.ckptEvery > 0 && ((k+1)%o.wl.ckptEvery == 0 || k+1 == o.iters) {
			end := r.rec.beginRoot(kindCheckpoint)
			t := wall.Now()
			err := r.checkpointNow(context.Background())
			w.ckpts = append(w.ckpts, wall.Now().Sub(t))
			end(err)
			if !op.do(fmt.Sprintf("checkpoint at iteration %d", r.iter), err) {
				break
			}
			w.mans = append(w.mans, r.last)
		}
	}
	w.elapsed = wall.Now().Sub(start)
	r.rec.enable(false)
	runtime.ReadMemStats(&w.mem1)
	w.lock1, w.mig1 = lockStats(r), migStats(r)
	for _, e := range r.engines() {
		w.retries += e.IntegrityRetries()
	}
	return w
}

func planRatios(r *rig) []string {
	var out []string
	for _, e := range r.engines() {
		out = append(out, e.Plan().Ratio())
	}
	return out
}

func lockStats(r *rig) map[string]tierlock.Stats {
	out := map[string]tierlock.Stats{}
	if r.locks != nil {
		for _, t := range r.tiers {
			out[t.Tier.Name()] = r.locks.Stats(t.Tier.Name())
		}
	}
	return out
}

func migStats(r *rig) engine.MigrationStats {
	var out engine.MigrationStats
	for _, e := range r.engines() {
		s := e.MigrationStats()
		out.Moves += s.Moves
		out.Bytes += s.Bytes
		out.Abandoned += s.Abandoned
	}
	return out
}

func compareSums(got, want []uint64) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("parameters differ from the un-offloaded reference in chunk %d of %d (digest %016x, want %016x)",
				i, len(want), foldSums(got), foldSums(want))
		}
	}
	return nil
}

// endToEnd fills the metrics a user of the system sees.
func endToEnd(m map[string]metric, w *window, setupS, peakRSS float64) {
	var params, update float64
	for _, s := range w.iters {
		params += float64(s.res.it.ParamsUpdated)
		update += s.res.it.Phases.Update
	}
	m["setup_s"] = metric{setupS, "s"}
	m["iter_s"] = metric{ratio(w.elapsed.Seconds(), float64(len(w.iters))), "s"}
	m["update_mparams_per_s"] = metric{ratio(params, update) / 1e6, "Mparam/s"}
	m["peak_rss_mib"] = metric{peakRSS, "MiB"}
}

// ratio is a/b, and 0 when there is nothing to divide by: a run that
// aborted early still prints a well-formed result.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics; it copies v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
