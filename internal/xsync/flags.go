// Package xsync provides the synchronization substrate of the paper's
// schemes: spin-wait flag tables (the sync flags of Section III-B, on which
// the static executor waits for the tiles its next tile depends on) and
// the Parker wakeup primitive of the dependency-driven scheduler.
package xsync

import "sync/atomic"

// FlagTable is a set of one-shot completion flags indexed by a dense id —
// the "structure of synchronization flags" attached to each thread in
// Section III-B of the paper, where each flag represents the index of a base
// parallelogram within the root parallelogram space. Setting is a release
// store and IsSet an acquire load, so a waiter that spins on IsSet sees the
// data computed before Set (and the race detector agrees).
type FlagTable struct {
	flags []atomic.Uint32
}

// NewFlagTable creates a table of n cleared flags.
func NewFlagTable(n int) *FlagTable {
	return &FlagTable{flags: make([]atomic.Uint32, n)}
}

// Set marks flag i. Setting an already-set flag is a no-op.
func (f *FlagTable) Set(i int) { f.flags[i].Store(1) }

// IsSet reports whether flag i has been set.
func (f *FlagTable) IsSet(i int) bool { return f.flags[i].Load() != 0 }
