package storage

import (
	"errors"
	"io"
)

// eintrRetryLimit bounds consecutive zero-progress retries in the
// short-read and short-write loops. EINTR can legitimately repeat under
// signal load, but an adversarial or broken reader must not spin forever.
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
// It is generic so a descriptor-valued reader is not boxed per call.
func readAtFull[R io.ReaderAt](r R, dst []byte, off int64) (int, error) {
	return atFull(r.ReadAt, dst, off, io.ErrUnexpectedEOF)
}

// writeAtFull writes all of src at off with readAtFull's discipline.
func writeAtFull[W io.WriterAt](w W, src []byte, off int64) (int, error) {
	return atFull(w.WriteAt, src, off, io.ErrShortWrite)
}

// atFull moves all of buf at off through op: a short transfer that made
// progress continues from where it stopped (whatever error came with
// it), a transient error retries in place under eintrRetryLimit, and a
// transfer that makes no progress without an error — a contract
// violation — fails with stalled rather than spinning.
func atFull(op func([]byte, int64) (int, error), buf []byte, off int64, stalled error) (int, error) {
	total := 0
	spins := 0
	for total < len(buf) {
		n, err := op(buf[total:], off+int64(total))
		if n > 0 {
			total += n
			spins = 0
			continue
		}
		if transient(err) {
			if spins++; spins > eintrRetryLimit {
				return total, err
			}
			continue
		}
		if err == nil {
			err = stalled
		}
		return total, err
	}
	return total, nil
}
