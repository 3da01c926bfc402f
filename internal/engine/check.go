package engine

import (
	"errors"
	"fmt"

	"nustencil/internal/spacetime"
)

// ErrCycle is returned when the tile dependency graph is not a DAG — the
// tiling is not a legal time skewing.
var ErrCycle = errors.New("engine: dependency cycle in tiling (illegal time skewing)")

// ErrStaticDeadlock is returned when a static schedule cannot complete: some
// worker's emission order runs a tile before one it depends on, so the
// spin-flag executor would wait forever on a flag no one will set.
var ErrStaticDeadlock = errors.New("engine: static schedule deadlocked (emission order inconsistent with dependencies)")

// ErrUnownedTile rejects tilings with shared-queue tiles from the static
// executor, which has no scheduler to assign them.
var ErrUnownedTile = errors.New("engine: static execution requires every tile to have an owner")

// CheckDeps returns ErrCycle unless deps (as returned by BuildDeps) is
// acyclic. Acyclicity is a fixed property of the tiling, so callers check it
// once when they build a plan; Run never second-guesses it while running.
func CheckDeps(deps [][]int) error {
	if !acyclic(deps, nil) {
		return ErrCycle
	}
	return nil
}

// CheckStatic returns ErrStaticDeadlock unless RunStatic can complete the
// tiling on workers workers: each worker runs its tiles in emission order,
// so the schedule is consistent exactly when deps plus an edge from every
// tile to its predecessor in its worker's list has no cycle. It returns
// ErrUnownedTile if a tile has no owner. deps should already have passed
// CheckDeps; a cycle in deps alone also reads as ErrStaticDeadlock here.
func CheckStatic(tiles []*spacetime.Tile, deps [][]int, workers int) error {
	if workers <= 0 {
		return fmt.Errorf("engine: workers must be positive, got %d", workers)
	}
	off, flat, err := staticLists(tiles, workers)
	if err != nil {
		return err
	}
	prev := make([]int32, len(tiles))
	for w := 0; w < workers; w++ {
		p := int32(-1)
		for _, i := range flat[off[w]:off[w+1]] {
			prev[i] = p
			p = i
		}
	}
	if !acyclic(deps, prev) {
		return ErrStaticDeadlock
	}
	return nil
}

// staticLists builds the per-worker static tile lists in CSR form: worker w
// runs tiles flat[off[w]:off[w+1]] in emission order, tile i belonging to
// worker tiles[i].Owner % workers. A counting pass sizes one flat buffer
// instead of growing workers slices by repeated append.
func staticLists(tiles []*spacetime.Tile, workers int) (off []int, flat []int32, err error) {
	off = make([]int, workers+1)
	for _, t := range tiles {
		if t.Owner < 0 {
			return nil, nil, ErrUnownedTile
		}
		off[t.Owner%workers+1]++
	}
	for w := 1; w <= workers; w++ {
		off[w] += off[w-1]
	}
	flat = make([]int32, len(tiles))
	next := make([]int, workers)
	copy(next, off[:workers])
	for i, t := range tiles {
		w := t.Owner % workers
		flat[next[w]] = int32(i)
		next[w]++
	}
	return off, flat, nil
}

// acyclic reports whether the graph whose node i has the out-edges deps[i],
// plus prev[i] when prev is non-nil and prev[i] >= 0, has no cycle. It is an
// iterative depth-first search, O(nodes+edges), so long dependency chains
// cannot overflow the goroutine stack.
func acyclic(deps [][]int, prev []int32) bool {
	const onPath, done = 1, 2 // node states; zero is unvisited
	state := make([]uint8, len(deps))
	type frame struct{ node, edge int }
	var stack []frame
	for root := range deps {
		if state[root] != 0 {
			continue
		}
		state[root] = onPath
		stack = append(stack[:0], frame{root, 0})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			d, j := deps[f.node], -1
			switch {
			case f.edge < len(d):
				j = d[f.edge]
			case f.edge == len(d) && prev != nil:
				j = int(prev[f.node])
			default:
				state[f.node] = done
				stack = stack[:len(stack)-1]
				continue
			}
			f.edge++
			if j < 0 || state[j] == done {
				continue
			}
			if state[j] == onPath {
				return false
			}
			state[j] = onPath
			stack = append(stack, frame{j, 0})
		}
	}
	return true
}
