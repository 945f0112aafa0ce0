// Package metrics collects and renders the measurements the paper reports:
// per-phase iteration breakdowns, update throughput (million parameters per
// second), effective I/O throughput (the paper's 2*size/(read+write)
// formula), cache statistics, and per-tier byte distribution.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/datastates/mlpoffload/internal/clock"
)

// Phases is the forward/backward/update breakdown of one iteration.
type Phases struct {
	Forward  float64 // seconds
	Backward float64
	Update   float64
}

// Total returns the iteration duration.
func (p Phases) Total() float64 { return p.Forward + p.Backward + p.Update }

// Add accumulates another breakdown.
func (p Phases) Add(q Phases) Phases {
	return Phases{p.Forward + q.Forward, p.Backward + q.Backward, p.Update + q.Update}
}

// Scale multiplies all phases by f.
func (p Phases) Scale(f float64) Phases {
	return Phases{p.Forward * f, p.Backward * f, p.Update * f}
}

// Iteration captures one training iteration's measurements.
type Iteration struct {
	Phases Phases
	// ParamsUpdated counts optimizer parameters stepped this iteration.
	ParamsUpdated int64
	// I/O is every storage-tier operation the engine's aio engines
	// completed since the previous iteration's fold, in all priority
	// classes: fetches, eviction flushes, the baseline's gradient writes
	// and reads, checkpoint staging and deletes. Traffic
	// between iterations (a checkpoint, say) lands in the next iteration,
	// an op still in flight at the fold in a later one; a series total is
	// exact. Construction and restore traffic is in no iteration, and D2H
	// is excluded, matching the paper's metric. BytesRead/BytesWritten
	// are raw (caller-side) bytes; WireBytesRead/WireBytesWritten are the
	// device-level counts, which a codec-wrapped tier shrinks — their
	// ratio is the iteration's compression win, and bandwidth math must
	// divide wire bytes (not raw) by transfer time.
	BytesRead        float64
	BytesWritten     float64
	WireBytesRead    float64
	WireBytesWritten float64
	ReadTime         float64 // summed transfer seconds across ops
	WriteTime        float64
	// Cache behaviour.
	CacheHits   int
	CacheMisses int
	// TierBytes is the bytes of optimizer state resident on each tier at
	// the end of the iteration ("host" included).
	TierBytes map[string]float64
	// UpdateComputeTime is the CPU time inside the Adam kernel, which
	// also narrows the updated parameters into the FP16 working copy.
	UpdateComputeTime float64
	// ClassIO breaks the same I/O down by I/O scheduler priority class
	// (keys are aio.Class strings: "demand-fetch", "prefetch", "flush",
	// "migration", ...): the classes' Bytes sum to BytesRead+BytesWritten
	// and their WireBytes to the wire aggregates. A delete is an op with
	// no bytes. Queue delays expose head-of-line blocking the aggregate
	// Read/WriteTime hides.
	ClassIO map[string]ClassIO
}

// ClassIO aggregates one priority class's operations within an iteration.
// WireBytes is the device-level byte count (equal to Bytes unless the
// tier is codec-wrapped); Bytes/WireBytes is the class's compression
// ratio.
type ClassIO struct {
	Ops        int
	Bytes      float64
	WireBytes  float64
	QueueDelay float64 // seconds ops sat queued before dispatch
	Transfer   float64 // seconds of device transfer time
}

// Add folds another accumulation of the same class into c.
func (c ClassIO) Add(o ClassIO) ClassIO {
	return ClassIO{
		Ops:        c.Ops + o.Ops,
		Bytes:      c.Bytes + o.Bytes,
		WireBytes:  c.WireBytes + o.WireBytes,
		QueueDelay: c.QueueDelay + o.QueueDelay,
		Transfer:   c.Transfer + o.Transfer,
	}
}

// Scale multiplies every field by f (Ops rounds down).
func (c ClassIO) Scale(f float64) ClassIO {
	return ClassIO{
		Ops:        int(float64(c.Ops) * f),
		Bytes:      c.Bytes * f,
		WireBytes:  c.WireBytes * f,
		QueueDelay: c.QueueDelay * f,
		Transfer:   c.Transfer * f,
	}
}

// Ratio returns the class's compression ratio (raw/wire; 0 when no wire
// bytes were recorded).
func (c ClassIO) Ratio() float64 {
	if c.WireBytes <= 0 {
		return 0
	}
	return c.Bytes / c.WireBytes
}

// RecordClassIO accumulates one completed operation under its priority
// class. wireBytes is the operation's device-level size (aio
// Op.WireBytes); pass bytes again for unencoded tiers.
func (it *Iteration) RecordClassIO(class string, bytes, wireBytes, queueDelay, transfer float64) {
	if it.ClassIO == nil {
		it.ClassIO = make(map[string]ClassIO)
	}
	c := it.ClassIO[class]
	c.Ops++
	c.Bytes += bytes
	c.WireBytes += wireBytes
	c.QueueDelay += queueDelay
	c.Transfer += transfer
	it.ClassIO[class] = c
}

// Merge folds another iteration's counters into it: the sum of several
// iterations (a run's total, or one step across ranks). Summed I/O keeps
// the Iteration definition — every op completed across the merged
// folds.
func (it *Iteration) Merge(o Iteration) {
	it.Phases = it.Phases.Add(o.Phases)
	it.ParamsUpdated += o.ParamsUpdated
	it.BytesRead += o.BytesRead
	it.BytesWritten += o.BytesWritten
	it.WireBytesRead += o.WireBytesRead
	it.WireBytesWritten += o.WireBytesWritten
	it.ReadTime += o.ReadTime
	it.WriteTime += o.WriteTime
	it.CacheHits += o.CacheHits
	it.CacheMisses += o.CacheMisses
	it.UpdateComputeTime += o.UpdateComputeTime
	for k, v := range o.TierBytes {
		if it.TierBytes == nil {
			it.TierBytes = make(map[string]float64, len(o.TierBytes))
		}
		it.TierBytes[k] += v
	}
	for k, v := range o.ClassIO {
		if it.ClassIO == nil {
			it.ClassIO = make(map[string]ClassIO, len(o.ClassIO))
		}
		it.ClassIO[k] = it.ClassIO[k].Add(v)
	}
}

// UpdateThroughput returns million parameters updated per second of update
// phase. Zero-duration updates report 0.
func (it Iteration) UpdateThroughput() float64 {
	if it.Phases.Update <= 0 {
		return 0
	}
	return float64(it.ParamsUpdated) / it.Phases.Update / 1e6
}

// EffectiveIO returns the paper's effective I/O throughput in bytes/second:
// 2*subgroup_bytes/(read_time+write_time) aggregated over all subgroups,
// computed here as (bytes_read+bytes_written)/(read_time+write_time).
// Raw bytes over device time: under a codec tier this exceeds the wire
// bandwidth by the compression ratio — exactly the effective-bandwidth
// multiplication the codec buys.
func (it Iteration) EffectiveIO() float64 {
	d := it.ReadTime + it.WriteTime
	if d <= 0 {
		return 0
	}
	return (it.BytesRead + it.BytesWritten) / d
}

// WireIO returns the device-level I/O throughput in bytes/second — what
// the tiers physically sustained.
func (it Iteration) WireIO() float64 {
	d := it.ReadTime + it.WriteTime
	if d <= 0 {
		return 0
	}
	return (it.WireBytesRead + it.WireBytesWritten) / d
}

// CompressionRatio returns raw bytes moved per wire byte (1 when no
// codec is active, 0 when the iteration moved nothing).
func (it Iteration) CompressionRatio() float64 {
	wire := it.WireBytesRead + it.WireBytesWritten
	if wire <= 0 {
		return 0
	}
	return (it.BytesRead + it.BytesWritten) / wire
}

// HitRate returns the host-cache hit fraction in [0,1].
func (it Iteration) HitRate() float64 {
	n := it.CacheHits + it.CacheMisses
	if n == 0 {
		return 0
	}
	return float64(it.CacheHits) / float64(n)
}

// Series accumulates iterations and reports averages, with warmup
// exclusion (the paper averages 8 of 10 iterations, skipping 2 warmups).
type Series struct {
	Warmup int
	iters  []Iteration
}

// Append records an iteration.
func (s *Series) Append(it Iteration) { s.iters = append(s.iters, it) }

// Len returns the number of recorded iterations.
func (s *Series) Len() int { return len(s.iters) }

// measured returns the post-warmup iterations (all, if fewer than warmup).
func (s *Series) measured() []Iteration {
	if len(s.iters) > s.Warmup {
		return s.iters[s.Warmup:]
	}
	return s.iters
}

// Mean returns the average of the post-warmup iterations.
func (s *Series) Mean() Iteration {
	ms := s.measured()
	if len(ms) == 0 {
		return Iteration{}
	}
	var out Iteration
	tb := make(map[string]float64)
	cio := make(map[string]ClassIO)
	for _, it := range ms {
		out.Phases = out.Phases.Add(it.Phases)
		out.ParamsUpdated += it.ParamsUpdated
		out.BytesRead += it.BytesRead
		out.BytesWritten += it.BytesWritten
		out.WireBytesRead += it.WireBytesRead
		out.WireBytesWritten += it.WireBytesWritten
		out.ReadTime += it.ReadTime
		out.WriteTime += it.WriteTime
		out.CacheHits += it.CacheHits
		out.CacheMisses += it.CacheMisses
		out.UpdateComputeTime += it.UpdateComputeTime
		for k, v := range it.TierBytes {
			tb[k] += v
		}
		for k, v := range it.ClassIO {
			cio[k] = cio[k].Add(v)
		}
	}
	inv := 1.0 / float64(len(ms))
	out.Phases = out.Phases.Scale(inv)
	out.ParamsUpdated = int64(float64(out.ParamsUpdated) * inv)
	out.BytesRead *= inv
	out.BytesWritten *= inv
	out.WireBytesRead *= inv
	out.WireBytesWritten *= inv
	out.ReadTime *= inv
	out.WriteTime *= inv
	out.UpdateComputeTime *= inv
	// Cache hits/misses stay summed? Average them too for comparability.
	out.CacheHits = int(float64(out.CacheHits) * inv)
	out.CacheMisses = int(float64(out.CacheMisses) * inv)
	for k := range tb {
		tb[k] *= inv
	}
	out.TierBytes = tb
	if len(cio) > 0 {
		for k := range cio {
			cio[k] = cio[k].Scale(inv)
		}
		out.ClassIO = cio
	}
	return out
}

// Iterations returns a copy of all recorded iterations.
func (s *Series) Iterations() []Iteration {
	return append([]Iteration(nil), s.iters...)
}

// Stopwatch measures phase durations for the real engine. By default it
// reads the wall clock; StartOn binds it to any engine clock so phase
// breakdowns follow virtual time in deterministic runs.
type Stopwatch struct {
	t0  time.Time
	clk clock.Clock
}

// Start begins timing on the previously bound clock (wall, if none).
func (s *Stopwatch) Start() { s.StartOn(s.clk) }

// StartOn binds the stopwatch to clk (nil = wall clock) and begins
// timing.
func (s *Stopwatch) StartOn(clk clock.Clock) {
	s.clk = clock.Or(clk)
	s.t0 = s.clk.Now()
}

// Lap returns seconds since Start/last Lap and restarts.
func (s *Stopwatch) Lap() float64 {
	s.clk = clock.Or(s.clk)
	now := s.clk.Now()
	d := now.Sub(s.t0).Seconds()
	s.t0 = now
	return d
}

// Table renders aligned text tables for experiment output.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
	Notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped, missing
// cells are blank.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render returns the aligned table as a string.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "=== %s ===\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// FormatBytes renders a byte count with a binary unit (the paper's figures
// use G for GiB-scale quantities).
func FormatBytes(b float64) string {
	units := []string{"B", "K", "M", "G", "T", "P"}
	i := 0
	for b >= 1024 && i < len(units)-1 {
		b /= 1024
		i++
	}
	if b >= 100 {
		return fmt.Sprintf("%.0f%s", b, units[i])
	}
	return fmt.Sprintf("%.1f%s", b, units[i])
}

// SortedKeys returns map keys in sorted order (deterministic rendering).
func SortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
