// Package a exercises aioop: submissions must be waited/stored, carry an
// explicit class, and Wait errors must be handled.
package a

import "mlp/internal/aio"

// dropped discards the op entirely: nothing can ever wait for it.
func dropped(e *aio.Engine, buf []byte) {
	e.SubmitWriteClass(aio.Checkpoint, "k", buf) // want `result of SubmitWriteClass dropped`
}

// blankOp keeps the error but throws the op away.
func blankOp(e *aio.Engine, buf []byte) error {
	_, err := e.SubmitReadClass(aio.DemandFetch, "k", buf) // want `\*aio\.Op from SubmitReadClass assigned to _`
	return err
}

// droppedThen: a completer does not excuse a dropped op; the call site
// must say why nothing waits for it.
func droppedThen(e *aio.Engine, buf []byte) error {
	e.SubmitWriteThen(aio.Flush, "k", buf, nil)       // want `result of SubmitWriteThen dropped`
	_, err := e.SubmitDeleteThen(aio.Flush, "k", nil) // want `\*aio\.Op from SubmitDeleteThen assigned to _`
	return err
}

// classless bypasses the priority scheduler.
func classless(e *aio.Engine, buf []byte) error {
	op, err := e.SubmitRead("k", buf) // want `implicit-class submission SubmitRead`
	if err != nil {
		return err
	}
	return op.Wait()
}

// discardedWait silences an I/O error without a documented reason.
func discardedWait(op *aio.Op) {
	_ = op.Wait() // want `Wait error discarded`
	op.Wait()     // want `Wait error discarded`
}

// droppedVec discards a coalesced batch op: every member's completion is
// unobservable.
func droppedVec(e *aio.Engine, keys []string, dsts [][]byte) {
	e.SubmitReadVecClass(aio.DemandFetch, keys, dsts) // want `result of SubmitReadVecClass dropped`
}

// blankVecOp keeps the error but throws the batch op away.
func blankVecOp(e *aio.Engine, keys []string, dsts [][]byte) error {
	_, err := e.SubmitReadVecClass(aio.DemandFetch, keys, dsts) // want `\*aio\.Op from SubmitReadVecClass assigned to _`
	return err
}

// okVec: one classed vectored submission for the whole run, waited once.
func okVec(e *aio.Engine, keys []string, dsts [][]byte) error {
	op, err := e.SubmitReadVecClass(aio.DemandFetch, keys, dsts)
	if err != nil {
		return err
	}
	return op.Wait()
}

// ok: classed submission, op waited, error propagated.
func ok(e *aio.Engine, buf []byte) error {
	op, err := e.SubmitReadClass(aio.DemandFetch, "k", buf)
	if err != nil {
		return err
	}
	return op.Wait()
}

// okStored: ops stored for a later collector are fine.
func okStored(e *aio.Engine, keys []string, buf []byte) ([]*aio.Op, error) {
	var pending []*aio.Op
	for _, k := range keys {
		op, err := e.SubmitWriteClass(aio.Flush, k, buf)
		if err != nil {
			return pending, err
		}
		pending = append(pending, op)
	}
	return pending, nil
}
