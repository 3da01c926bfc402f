package engine

import "nustencil/internal/spacetime"

// Each calls f(i) for every i in [0, n) in one Run of n independent tiles
// on workers workers: tile i runs on worker owner(i) % workers (owner(i)
// must not be negative), and with pin set each worker is locked to its OS
// thread and pinned to CPU w, as Run pins its workers. A loop over
// per-worker parts of the data (a first-touch fill, a scatter or a gather)
// thus runs each part on the worker, and the CPU, that computes it later.
// Calls with one owner run in increasing i, and one unpinned worker is
// the caller itself, as in Run. A panic in f returns as a *PanicError
// naming tile i.
func Each(n, workers int, pin bool, owner func(i int) int, f func(i int)) error {
	backing := make([]spacetime.Tile, n)
	tiles := make([]*spacetime.Tile, n)
	for i := range backing {
		backing[i] = spacetime.Tile{Owner: owner(i), Node: -1}
		tiles[i] = &backing[i]
	}
	_, err := Run(tiles, Config{
		Workers: workers,
		Pin:     pin,
		Deps:    make([][]int, n),
		Exec: func(_ int, tile *spacetime.Tile) int64 {
			f(tile.ID)
			return 0
		},
	})
	return err
}
