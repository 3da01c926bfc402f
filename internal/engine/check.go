package engine

import "errors"

// ErrCycle is returned when the tile dependency graph is not a DAG — the
// tiling is not a legal time skewing.
var ErrCycle = errors.New("engine: dependency cycle in tiling (illegal time skewing)")

// CheckDeps returns ErrCycle unless deps (as returned by BuildDeps) is
// acyclic. Acyclicity is a fixed property of the tiling, so callers check it
// once when they build a plan; Run never second-guesses it while running.
func CheckDeps(deps [][]int) error {
	if !acyclic(deps) {
		return ErrCycle
	}
	return nil
}

// acyclic reports whether the graph whose node i has the out-edges deps[i]
// has no cycle. It is an iterative depth-first search, O(nodes+edges), so
// long dependency chains cannot overflow the goroutine stack.
func acyclic(deps [][]int) bool {
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
			d := deps[f.node]
			if f.edge == len(d) {
				state[f.node] = done
				stack = stack[:len(stack)-1]
				continue
			}
			j := d[f.edge]
			f.edge++
			if state[j] == done {
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
