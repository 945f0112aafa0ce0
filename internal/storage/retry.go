package storage

import (
	"errors"
	"io"
)

// eintrRetryLimit bounds consecutive zero-progress retries in the
// short-read loops. EINTR can legitimately repeat under signal load,
// but an adversarial or broken reader must not spin forever.
const eintrRetryLimit = 100

// transient reports whether err is a retryable errno — EINTR, or the
// EAGAIN/ETIMEDOUT a network filesystem may return — as syscall.Errno's
// Temporary method classifies it.
func transient(err error) bool {
	var t interface{ Temporary() bool }
	return errors.As(err, &t) && t.Temporary()
}

// readAtFull reads len(dst) bytes at off, absorbing the partial results
// a network filesystem may deliver: a short ReadAt that made progress
// continues from where it stopped, and a transient error such as EINTR
// retries in place. It returns the bytes read and the first
// non-recoverable error — EOF before len(dst) means the object really
// is shorter than the caller expects and is surfaced, never looped on.
func readAtFull(r io.ReaderAt, dst []byte, off int64) (int, error) {
	total := 0
	spins := 0
	for total < len(dst) {
		n, err := r.ReadAt(dst[total:], off+int64(total))
		if n > 0 {
			total += n
			spins = 0
			continue // progress: keep reading regardless of err
		}
		if transient(err) {
			if spins++; spins > eintrRetryLimit {
				return total, err
			}
			continue
		}
		if err == nil {
			// Contract violation (no progress, no error): treat as a
			// truncated object rather than spinning.
			err = io.ErrUnexpectedEOF
		}
		return total, err
	}
	return total, nil
}
