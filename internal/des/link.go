package des

import "math"

// EfficiencyCurve maps the number of concurrent streams on a device to its
// aggregate efficiency in (0,1]. It models the interference the paper
// measures in Figure 4: a shared NVMe's aggregate throughput plateaus (or
// sags) while per-process latency worsens as processes are added.
type EfficiencyCurve func(n int) float64

// FlatEfficiency is an ideal device: eff(n) = 1.
func FlatEfficiency(int) float64 { return 1 }

// CappedInterference returns eff(n) = 1/(1+alpha*(min(n,cap)-1)): the
// device degrades with the number of *competing processes* (cap = workers
// per node), while additional in-flight operations beyond that merely
// queue — deep I/O queues do not collapse an NVMe the way independent
// uncoordinated clients do (Fig. 4 measures processes, not ops).
func CappedInterference(alpha float64, cap int) EfficiencyCurve {
	if cap < 1 {
		cap = 1
	}
	return func(n int) float64 {
		if n > cap {
			n = cap
		}
		if n <= 1 {
			return 1
		}
		return 1 / (1 + alpha*float64(n-1))
	}
}

// Link is a processor-sharing bandwidth resource: all active transfers
// progress simultaneously, each at rate peak*eff(n)/n bytes per second.
// Arrival and departure of transfers trigger recomputation of completion
// times. This reproduces the behaviour of concurrent un-coordinated I/O
// (the DeepSpeed baseline) whereas Mutex-guarded exclusive access (the
// MLP-Offload design) sees the full peak bandwidth per transfer.
type Link struct {
	sim  *Sim
	name string
	peak float64 // bytes per second
	eff  EfficiencyCurve

	active  []*transfer
	lastT   float64
	pending *event

	// stats
	bytesMoved float64
	busyFrom   float64
	busyTime   float64
	transfers  int64
}

type transfer struct {
	remaining float64
	total     float64
	proc      *Proc
	started   float64
	done      bool
}

// finished reports whether a transfer's residue is negligible: an absolute
// epsilon for tiny transfers plus a relative one for large transfers whose
// float64 residue can never be burned down exactly.
func (t *transfer) finished() bool {
	return t.remaining <= 1e-6+t.total*1e-12
}

// NewLink creates a bandwidth link. peak is in bytes/second; eff may be nil
// for an ideal device.
func (s *Sim) NewLink(name string, peak float64, eff EfficiencyCurve) *Link {
	if peak <= 0 {
		panic("des: link peak bandwidth must be positive")
	}
	if eff == nil {
		eff = FlatEfficiency
	}
	return &Link{sim: s, name: name, peak: peak, eff: eff}
}

// Name returns the link's name.
func (l *Link) Name() string { return l.name }

// Peak returns the link's peak bandwidth in bytes/second.
func (l *Link) Peak() float64 { return l.peak }

// SetPeak changes the link's peak bandwidth (e.g. modelling a PFS whose
// delivered bandwidth shifts under external load). In-flight transfers
// proceed at the new rate from now on.
func (l *Link) SetPeak(peak float64) {
	if peak <= 0 {
		panic("des: link peak bandwidth must be positive")
	}
	l.advance()
	l.peak = peak
	l.reschedule()
}

// rate returns the current per-stream rate.
func (l *Link) rate() float64 {
	n := len(l.active)
	if n == 0 {
		return l.peak
	}
	return l.peak * l.eff(n) / float64(n)
}

// advance applies progress to all active transfers up to sim.now.
func (l *Link) advance() {
	now := l.sim.now
	if now <= l.lastT {
		l.lastT = now
		return
	}
	if n := len(l.active); n > 0 {
		r := l.rate()
		dt := now - l.lastT
		for _, t := range l.active {
			t.remaining -= r * dt
			if t.remaining < 0 {
				t.remaining = 0
			}
		}
	}
	l.lastT = now
}

// reschedule cancels the pending completion event and schedules the next
// one based on current membership.
func (l *Link) reschedule() {
	l.sim.cancel(l.pending)
	l.pending = nil
	if len(l.active) == 0 {
		return
	}
	r := l.rate()
	minRem := math.Inf(1)
	for _, t := range l.active {
		if t.remaining < minRem {
			minRem = t.remaining
		}
	}
	l.pending = l.sim.schedule(minRem/r, l.onTimer)
}

// onTimer fires when the earliest in-flight transfer should complete.
func (l *Link) onTimer() {
	l.pending = nil
	l.advance()
	var still []*transfer
	var finished []*transfer
	for _, t := range l.active {
		if t.finished() {
			t.done = true
			finished = append(finished, t)
		} else {
			still = append(still, t)
		}
	}
	if len(finished) == 0 && len(still) > 0 {
		// Nothing crossed the epsilon, yet the timer fired: the residue is
		// too small for simulated time to advance (now + rem/rate == now in
		// float64). Force-complete the minimum-remaining transfer to
		// guarantee progress.
		minIdx := 0
		for i, t := range still {
			if t.remaining < still[minIdx].remaining {
				minIdx = i
			}
		}
		t := still[minIdx]
		if l.sim.now+t.remaining/l.rate() == l.sim.now {
			t.done = true
			finished = append(finished, t)
			still = append(still[:minIdx], still[minIdx+1:]...)
		}
	}
	l.active = still
	if len(l.active) == 0 && len(finished) > 0 {
		l.busyTime += l.sim.now - l.busyFrom
	}
	// Wake finished transfers' processes. Each wake runs the process to
	// its next blocking point; it may start new transfers on this link,
	// which re-advances and reschedules safely.
	for _, t := range finished {
		l.sim.runProc(t.proc)
	}
	l.reschedule()
}

// Transfer moves bytes through the link on behalf of p, blocking until the
// transfer completes under processor sharing. It returns the elapsed
// simulated time.
func (l *Link) Transfer(p *Proc, bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	l.advance()
	if len(l.active) == 0 {
		l.busyFrom = l.sim.now
	}
	t := &transfer{remaining: bytes, total: bytes, proc: p, started: l.sim.now}
	l.active = append(l.active, t)
	l.bytesMoved += bytes
	l.transfers++
	l.reschedule()
	p.park("link:" + l.name)
	return l.sim.now - t.started
}

// Active returns the number of in-flight transfers.
func (l *Link) Active() int { return len(l.active) }

// BytesMoved returns the cumulative bytes transferred (including in-flight
// bytes already admitted).
func (l *Link) BytesMoved() float64 { return l.bytesMoved }

// BusyTime returns the total simulated time during which the link had at
// least one active transfer, counted through the last time it went idle.
func (l *Link) BusyTime() float64 {
	if len(l.active) > 0 {
		return l.busyTime + (l.sim.now - l.busyFrom)
	}
	return l.busyTime
}

// Transfers returns the number of Transfer calls admitted.
func (l *Link) Transfers() int64 { return l.transfers }
