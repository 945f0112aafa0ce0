// Package wire is the control-plane transport of elastic multi-rank
// training: a length-prefixed framed protocol over stdlib net.Conn, a
// clock-driven retry/backoff policy, and heartbeat-based liveness
// tracking. The module stays zero-dependency — everything here is stdlib
// net plus the repository's injectable clock.
//
// # Frame layout
//
// Every message on the wire is one frame:
//
//	offset  size  field
//	0       4     payload length N, big-endian uint32 (type byte included)
//	4       1     frame type (application-defined; see internal/train)
//	5       N-1   payload bytes (the application's encoding; train uses JSON)
//
// N counts the type byte plus the payload, so an empty message (a
// heartbeat) is N=1. Frames larger than MaxFrame are rejected on both
// send and receive — the control plane carries flags, digests and
// manifests metadata, never bulk tensor data, so an oversized frame is a
// protocol error (or garbage from a port scanner), not a workload.
//
// # Deadlines and the clock
//
// Per-message deadlines derive from the injected clock.Clock
// (clk.Now().Add(timeout), the discipline mlpvet's deadlinecheck
// enforces) and are armed on the net.Conn only when the clock is the
// wall clock: a virtual clock's timestamps mean nothing to the kernel,
// so under virtual time the deadline enforcement belongs to the liveness
// layer (Liveness, Backoff), which is exactly the part timing tests
// assert on with exact virtual durations.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/datastates/mlpoffload/internal/clock"
)

// MaxFrame bounds one frame's length field (type byte + payload). The
// control plane's largest messages are step lists and recovery
// assignments — kilobytes — so 1 MiB is generous headroom and a cheap
// guard against unbounded allocation from a corrupt or hostile peer.
const MaxFrame = 1 << 20

// headerLen is the fixed frame prefix: 4-byte length + 1-byte type.
const headerLen = 5

// Conn is a framed connection: Send and Recv move whole frames with
// per-message deadlines. Send and Recv are each serialized internally
// and may be used from different goroutines concurrently (the member's
// heartbeat loop sends while its training loop blocks in Recv).
type Conn struct {
	nc      net.Conn
	clk     clock.Clock
	wall    bool
	timeout time.Duration

	wmu sync.Mutex
	rmu sync.Mutex
}

// NewConn frames an accepted or dialed net.Conn. timeout is the
// per-message send deadline (and the default Recv idle budget); <= 0
// disables deadlines. Deadlines are armed only under the wall clock —
// see the package comment.
func NewConn(nc net.Conn, clk clock.Clock, timeout time.Duration) *Conn {
	clk = clock.Or(clk)
	return &Conn{nc: nc, clk: clk, wall: clock.IsWall(clk), timeout: timeout}
}

// Send writes one frame. The write deadline is timeout from now.
func (c *Conn) Send(t byte, payload []byte) error {
	n := 1 + len(payload)
	if n > MaxFrame {
		return fmt.Errorf("wire: frame type %d payload %d bytes exceeds MaxFrame %d", t, len(payload), MaxFrame)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.wall && c.timeout > 0 {
		if err := c.nc.SetWriteDeadline(c.clk.Now().Add(c.timeout)); err != nil {
			return err
		}
	}
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(n))
	hdr[4] = t
	if _, err := c.nc.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: send type %d: %w", t, err)
	}
	// Zero-length writes are skipped, not passed through: net.Pipe (used
	// by virtual-clock tests) blocks an empty Write until a reader
	// consumes it, and no reader ever issues a zero-byte read.
	if len(payload) > 0 {
		if _, err := c.nc.Write(payload); err != nil {
			return fmt.Errorf("wire: send type %d: %w", t, err)
		}
	}
	return nil
}

// Recv reads one frame, waiting up to idle for it to begin arriving
// (0 uses the connection's default timeout; negative blocks forever).
// A peer that stays silent past the budget surfaces as a timeout error
// — the reader treats it like a dead connection.
func (c *Conn) Recv(idle time.Duration) (byte, []byte, error) {
	if idle == 0 {
		idle = c.timeout
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if c.wall && idle > 0 {
		if err := c.nc.SetReadDeadline(c.clk.Now().Add(idle)); err != nil {
			return 0, nil, err
		}
	} else if c.wall {
		if err := c.nc.SetReadDeadline(time.Time{}); err != nil {
			return 0, nil, err
		}
	}
	var hdr [headerLen]byte
	if _, err := io.ReadFull(c.nc, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("wire: recv header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 1 || n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame length %d out of range [1, %d]", n, MaxFrame)
	}
	payload := make([]byte, n-1)
	if _, err := io.ReadFull(c.nc, payload); err != nil {
		return hdr[4], nil, fmt.Errorf("wire: recv type %d payload: %w", hdr[4], err)
	}
	return hdr[4], payload, nil
}

// Close closes the underlying connection; blocked Send/Recv calls
// return with an error.
func (c *Conn) Close() error { return c.nc.Close() }
