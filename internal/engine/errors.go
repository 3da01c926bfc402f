package engine

import (
	"fmt"
	"runtime/debug"

	"nustencil/internal/spacetime"
)

// PanicError is returned by Run when a worker's Exec — the
// user kernel, a source or coefficient closure, anything reached from the
// tile body — panics. The panic is recovered at the worker top, the
// remaining workers are cancelled, and the process stays alive; the error
// carries everything needed to attribute the fault.
type PanicError struct {
	// Tile is the spacetime ID of the tile whose execution panicked, or -1
	// when the panic did not happen inside a tile body.
	Tile int
	// Worker is the worker index that recovered the panic.
	Worker int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack (runtime/debug.Stack) at
	// recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: worker %d panicked executing tile %d: %v", e.Worker, e.Tile, e.Value)
}

// newPanicError wraps value r, recovered on worker w while it executed
// tiles[cur] (cur < 0: outside any tile body), with the current stack.
func newPanicError(tiles []*spacetime.Tile, cur, w int, r any) *PanicError {
	id := -1
	if cur >= 0 {
		id = tiles[cur].ID
	}
	return &PanicError{Tile: id, Worker: w, Value: r, Stack: debug.Stack()}
}

// Terminal states of one run, held in a single atomic status word. Folding
// completion, cancellation, and panic into one word keeps the
// worker hot path at exactly one atomic load per tile, and the
// compare-and-swap out of runActive makes the first terminal event win —
// later ones (a cancel racing a panic, say) leave the recorded outcome
// untouched.
const (
	runActive int32 = iota
	runDone
	runCancelled
	runPanicked
)
