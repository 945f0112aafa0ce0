// Package aio is a hermetic stub of the engine's async-I/O package for
// analysistest fixtures.
package aio

type Class int

const (
	DemandFetch Class = iota
	Checkpoint
	Flush
	Migration
)

type Op struct{}

func (o *Op) Wait() error           { return nil }
func (o *Op) WaitCtx(ctx any) error { return nil }

type Engine struct{}

func (e *Engine) SubmitReadClass(c Class, key string, dst []byte) (*Op, error) { return nil, nil }
func (e *Engine) SubmitReadVecClass(c Class, keys []string, dsts [][]byte) (*Op, error) {
	return nil, nil
}
func (e *Engine) SubmitWriteClass(c Class, key string, src []byte) (*Op, error) { return nil, nil }
func (e *Engine) SubmitDelete(c Class, key string) (*Op, error)                 { return nil, nil }
func (e *Engine) SubmitWriteThen(c Class, key string, src []byte, then any) (*Op, error) {
	return nil, nil
}
func (e *Engine) SubmitDeleteThen(c Class, key string, then any) (*Op, error) { return nil, nil }
func (e *Engine) SubmitRead(key string, dst []byte) (*Op, error)              { return nil, nil }
func (e *Engine) SubmitWrite(key string, src []byte) (*Op, error)             { return nil, nil }
