// Package ratelimit provides byte-granularity bandwidth throttling used to
// emulate storage-tier bandwidth (NVMe, PFS) on hardware that does not have
// it, plus a contention model that reproduces the behaviour the paper
// measures in Figure 4: aggregate throughput of a shared device stays
// roughly flat as concurrent processes are added, while per-process latency
// degrades super-linearly.
package ratelimit

import (
	"context"
	"errors"
	"sync"
	"time"

	clockpkg "github.com/datastates/mlpoffload/internal/clock"
)

// ErrBurstExceeded is returned when a single request exceeds the burst
// capacity of a limiter and therefore can never be satisfied.
var ErrBurstExceeded = errors.New("ratelimit: request exceeds burst capacity")

// Clock is the engine-wide time source (see internal/clock): the limiter
// is driven by a virtual clock in tests and by the wall clock in
// production.
type Clock = clockpkg.Clock

// Limiter is a token-bucket rate limiter measured in bytes per second.
// It is safe for concurrent use. A zero-rate limiter blocks forever and is
// rejected by NewLimiter.
type Limiter struct {
	mu       sync.Mutex
	rate     float64 // bytes per second
	burst    float64 // bucket capacity in bytes
	tokens   float64 // current tokens
	last     time.Time
	clock    Clock
	reserved time.Time // time through which tokens have been promised
}

// NewLimiter creates a limiter emitting rate bytes/second with the given
// burst (bucket size) in bytes. If burst <= 0 it defaults to one second's
// worth of tokens. clock may be nil for the wall clock.
func NewLimiter(rate float64, burst float64, clock Clock) *Limiter {
	if rate <= 0 {
		panic("ratelimit: rate must be positive")
	}
	if burst <= 0 {
		burst = rate
	}
	clock = clockpkg.Or(clock)
	now := clock.Now()
	return &Limiter{
		rate:     rate,
		burst:    burst,
		tokens:   burst,
		last:     now,
		clock:    clock,
		reserved: now,
	}
}

// Rate returns the configured rate in bytes per second.
func (l *Limiter) Rate() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rate
}

// SetRate changes the emission rate, preserving accumulated tokens.
func (l *Limiter) SetRate(rate float64) {
	if rate <= 0 {
		panic("ratelimit: rate must be positive")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.advance(l.clock.Now())
	l.rate = rate
}

// advance refreshes the token count to time now. Caller holds mu.
func (l *Limiter) advance(now time.Time) {
	if now.After(l.last) {
		l.tokens += now.Sub(l.last).Seconds() * l.rate
		if l.tokens > l.burst {
			l.tokens = l.burst
		}
		l.last = now
	}
}

// reserveN reserves n bytes and returns the duration the caller must wait
// before the reservation is usable.
func (l *Limiter) reserveN(n int64) (time.Duration, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if float64(n) > l.burst {
		return 0, ErrBurstExceeded
	}
	now := l.clock.Now()
	l.advance(now)
	l.tokens -= float64(n)
	if l.tokens >= 0 {
		return 0, nil
	}
	wait := time.Duration(-l.tokens / l.rate * float64(time.Second))
	return wait, nil
}

// WaitN blocks until n bytes worth of tokens are available or ctx is done.
// Requests larger than the burst are satisfied by splitting internally, so
// arbitrarily large transfers work (their duration is n/rate as expected).
func (l *Limiter) WaitN(ctx context.Context, n int64) error {
	for n > 0 {
		chunk := n
		l.mu.Lock()
		maxChunk := int64(l.burst)
		l.mu.Unlock()
		if chunk > maxChunk {
			chunk = maxChunk
		}
		wait, err := l.reserveN(chunk)
		if err != nil {
			return err
		}
		if wait > 0 {
			if err := sleepCtx(ctx, l.clock, wait); err != nil {
				return err
			}
		} else if err := ctx.Err(); err != nil {
			return err
		}
		n -= chunk
	}
	return nil
}

func sleepCtx(ctx context.Context, clock Clock, d time.Duration) error {
	if !clockpkg.IsWall(clock) {
		// Virtual clocks cannot be interrupted by a context deadline in a
		// meaningful way; check cancellation before and after.
		if err := ctx.Err(); err != nil {
			return err
		}
		clock.Sleep(d)
		return ctx.Err()
	}
	//mlpvet:allow clockcheck wall-clock branch: IsWall guarded above, a real timer is the only way to race ctx.Done
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Gate models device-level contention. The paper observes (Fig. 4) that a
// shared NVMe's aggregate throughput stays roughly constant as concurrent
// client processes increase, but per-process latency grows worse than
// linearly because of interference inside the storage subsystem. Gate
// tracks the number of concurrent streams and exposes an efficiency factor
// eff(n) in (0, 1]: with n concurrent streams the device delivers
// aggregate bandwidth B*eff(n), i.e. each fair-share stream sees
// B*eff(n)/n.
type Gate struct {
	mu     sync.Mutex
	active int
	curve  EfficiencyCurve
}

// EfficiencyCurve maps the number of concurrent streams to aggregate
// efficiency in (0,1]. Implementations must be monotonically non-increasing
// and return 1 for n <= 1.
type EfficiencyCurve func(n int) float64

// InterferenceCurve returns the curve eff(n) = 1/(1+alpha*(n-1)): linear
// growth of interference overhead per added stream. alpha=0 is an ideal
// device; alpha≈0.2 reproduces the ~40% aggregate loss at 4 writers the
// paper reports for its NVMe (3.2 GB/s effective vs 5.3 GB/s peak).
func InterferenceCurve(alpha float64) EfficiencyCurve {
	return func(n int) float64 {
		if n <= 1 {
			return 1
		}
		return 1 / (1 + alpha*float64(n-1))
	}
}

// FlatCurve returns an ideal device: eff(n) = 1.
func FlatCurve() EfficiencyCurve { return func(int) float64 { return 1 } }

// NewGate creates a contention gate with the given efficiency curve (nil
// means ideal).
func NewGate(curve EfficiencyCurve) *Gate {
	if curve == nil {
		curve = FlatCurve()
	}
	return &Gate{curve: curve}
}

// Enter registers a stream and returns the per-stream bandwidth share of a
// device with peak bandwidth, plus a release function. The share is the
// fair share at entry time; callers performing long transfers should
// re-query via Share if they want dynamic adaptation.
func (g *Gate) Enter(peak float64) (share float64, release func()) {
	g.mu.Lock()
	g.active++
	n := g.active
	g.mu.Unlock()
	share = peak * g.curve(n) / float64(n)
	var once sync.Once
	release = func() {
		once.Do(func() {
			g.mu.Lock()
			g.active--
			g.mu.Unlock()
		})
	}
	return share, release
}

// Share returns the current fair-share bandwidth for one stream of a device
// with peak bandwidth, assuming the caller is already registered.
func (g *Gate) Share(peak float64) float64 {
	g.mu.Lock()
	n := g.active
	g.mu.Unlock()
	if n < 1 {
		n = 1
	}
	return peak * g.curve(n) / float64(n)
}

// Active returns the number of registered streams.
func (g *Gate) Active() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.active
}
