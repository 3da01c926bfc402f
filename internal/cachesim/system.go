package cachesim

import (
	"fmt"
)

// Topology places cores on sockets (= NUMA nodes).
type Topology struct {
	Cores          int
	CoresPerSocket int
}

// NodeOfCore returns the socket of a core.
func (t Topology) NodeOfCore(core int) int {
	if t.CoresPerSocket <= 0 {
		return 0
	}
	return core / t.CoresPerSocket
}

// Sockets returns the socket count.
func (t Topology) Sockets() int {
	if t.CoresPerSocket <= 0 {
		return 1
	}
	return (t.Cores + t.CoresPerSocket - 1) / t.CoresPerSocket
}

// Stats aggregates the simulated traffic.
type Stats struct {
	// Accesses is the number of line-granular lookups issued.
	Accesses int64
	// HitsPerLevel[i] counts hits at cache level i.
	HitsPerLevel []int64
	// MemReads / MemWrites count lines transferred from/to memory.
	MemReads, MemWrites int64
	// LocalMem / RemoteMem split memory line transfers by whether the
	// owning node matches the accessing core's node. Unowned pages count
	// as remote.
	LocalMem, RemoteMem int64
	// MemByNode counts memory line transfers served by each node (index
	// len-1 aggregates unowned pages).
	MemByNode []int64
}

// MemWordsPerUpdate converts line traffic to float64 words per update for
// comparison with the analytic model.
func (s Stats) MemWordsPerUpdate(lineBytes int, updates int64) float64 {
	if updates <= 0 {
		return 0
	}
	return float64((s.MemReads+s.MemWrites)*int64(lineBytes)) / 8 / float64(updates)
}

// LocalFraction returns the locally served fraction of memory traffic.
func (s Stats) LocalFraction() float64 {
	t := s.LocalMem + s.RemoteMem
	if t == 0 {
		return 1
	}
	return float64(s.LocalMem) / float64(t)
}

// System is the simulated machine: per-core private levels, optional
// socket-shared LLC, NUMA memory with page ownership.
type System struct {
	topo     Topology
	levels   []LevelConfig
	caches   [][]*cache // caches[level][unit]
	pageSize int64
	owner    map[int64]int32
	nodes    int

	Stats Stats
}

// New builds a system. levels are ordered L1 first. pageSize is in bytes.
func New(topo Topology, levels []LevelConfig, pageSize int) (*System, error) {
	if topo.Cores < 1 {
		return nil, fmt.Errorf("cachesim: need at least one core")
	}
	if len(levels) == 0 {
		return nil, fmt.Errorf("cachesim: need at least one cache level")
	}
	if pageSize <= 0 {
		pageSize = 4096
	}
	s := &System{
		topo:     topo,
		levels:   levels,
		pageSize: int64(pageSize),
		owner:    make(map[int64]int32),
		nodes:    topo.Sockets(),
	}
	for _, lv := range levels {
		units := topo.Cores
		if lv.SharedPerSocket {
			units = topo.Sockets()
		}
		row := make([]*cache, units)
		for u := range row {
			row[u] = newCache(lv)
		}
		s.caches = append(s.caches, row)
	}
	s.Stats.HitsPerLevel = make([]int64, len(levels))
	s.Stats.MemByNode = make([]int64, s.nodes+1)
	return s, nil
}

// LineBytes returns the line size of the first level (all levels should
// agree for meaningful accounting).
func (s *System) LineBytes() int { return s.levels[0].LineBytes }

// TouchRange first-touches every page in [addr, addr+n).
func (s *System) TouchRange(addr, n int64, node int) {
	for p := addr / s.pageSize; p <= (addr+n-1)/s.pageSize; p++ {
		if _, ok := s.owner[p]; !ok {
			s.owner[p] = int32(node)
		}
	}
}

// unit returns the cache instance index of level lv for a core.
func (s *System) unit(lv, core int) int {
	if s.levels[lv].SharedPerSocket {
		return s.topo.NodeOfCore(core)
	}
	return core
}

// Access simulates one line-granular access by core to addr.
func (s *System) Access(core int, addr int64, write bool) {
	s.Stats.Accesses++
	for lv := range s.levels {
		hit, wb := s.caches[lv][s.unit(lv, core)].access(addr, write)
		if wb >= 0 {
			s.writeBack(lv, core, wb)
		}
		if hit {
			s.Stats.HitsPerLevel[lv]++
			return
		}
	}
	// Miss everywhere: a memory read.
	s.Stats.MemReads++
	s.countMem(core, addr)
}

// writeBack sends an evicted dirty line to the next level (or memory).
func (s *System) writeBack(fromLevel, core int, addr int64) {
	next := fromLevel + 1
	if next >= len(s.levels) {
		s.Stats.MemWrites++
		s.countMem(core, addr)
		return
	}
	_, wb := s.caches[next][s.unit(next, core)].access(addr, true)
	if wb >= 0 {
		s.writeBack(next, core, wb)
	}
}

func (s *System) countMem(core int, addr int64) {
	node, ok := s.owner[addr/s.pageSize]
	switch {
	case !ok:
		s.Stats.RemoteMem++
		s.Stats.MemByNode[s.nodes]++
	case int(node) == s.topo.NodeOfCore(core):
		s.Stats.LocalMem++
		s.Stats.MemByNode[node]++
	default:
		s.Stats.RemoteMem++
		s.Stats.MemByNode[node]++
	}
}

// AccessRange issues line-granular accesses covering [addr, addr+n) bytes.
func (s *System) AccessRange(core int, addr, n int64, write bool) {
	lb := int64(s.LineBytes())
	for a := addr - addr%lb; a < addr+n; a += lb {
		s.Access(core, a, write)
	}
}
