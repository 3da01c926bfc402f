// Package machine models the paper's two ccNUMA testbeds — the 8-socket
// dual-core AMD Opteron 8222 and the 4-socket oct-core Intel Xeon X7550 —
// from the measured numbers in Table I and the bandwidth scaling behaviour
// of Figure 3 / Section IV-C. The model is the substitution for hardware
// this reproduction cannot access: every simulated experiment prices its
// memory traffic against these curves.
package machine

import (
	"fmt"
	"math"
)

// GB is 1e9 bytes, the unit of the paper's GB/s figures.
const GB = 1e9

// CacheLevel describes one level of the hierarchy.
type CacheLevel struct {
	Name string
	// SizeBytes is the capacity per core (for private caches) or per
	// socket (for shared caches).
	SizeBytes int64
	// SharedPerSocket marks socket-shared caches (the Xeon L3).
	SharedPerSocket bool
	// AggBandwidth is the measured aggregate bandwidth in GB/s with all
	// cores active (Table I). Cache bandwidth scales linearly with cores
	// (Figure 3), so per-core bandwidth is AggBandwidth/NumCores.
	AggBandwidth float64
}

// Machine is a ccNUMA machine model. NUMA nodes coincide with sockets on
// both testbeds.
type Machine struct {
	Name           string
	Sockets        int
	CoresPerSocket int
	FreqGHz        float64
	Caches         []CacheLevel // ordered L1 first; last entry is the LLC

	// SysBandwidthAgg is the measured STREAM COPY bandwidth in GB/s with
	// all cores (Table I).
	SysBandwidthAgg float64
	// PeakDPAgg is the measured double-precision peak in GFLOPS with all
	// cores (Table I).
	PeakDPAgg float64

	// sysScale holds the system-bandwidth scaling curve as (cores, factor)
	// anchors with factor relative to single-core bandwidth, from
	// Section IV-C. Interpolated geometrically between anchors.
	sysScale []scalePoint

	// RemoteFactor is the efficiency of serving traffic across the
	// interconnect relative to a local access stream (HyperTransport /
	// QPI penalty).
	RemoteFactor float64

	// NetLinkGBs is the per-node network-link bandwidth in GB/s for
	// distributed (multi-rank) runs — the InfiniBand-class fabric that
	// would connect several of these boxes. Zero falls back to
	// DefaultNetLinkGBs, so host-derived and custom machines price
	// network traffic without declaring a fabric.
	NetLinkGBs float64
}

// DefaultNetLinkGBs is the per-node network-link bandwidth assumed when
// a machine model does not declare one: 4 GB/s, a QDR InfiniBand link
// of the paper's era.
const DefaultNetLinkGBs = 4.0

type scalePoint struct {
	cores  int
	factor float64
}

// Opteron8222 returns the model of the 8-socket dual-core AMD Opteron 8222
// ("Santa Rosa") machine: 16 cores, 8 NUMA nodes, no L3.
//
// Scaling anchors follow Section IV-C: 1→2 cores ×1.6, ≈×1.5–1.6 per added
// socket, 6.5× overall at 16 cores; absolute values anchored to the
// measured 11.9 GB/s with 16 threads.
func Opteron8222() *Machine {
	return &Machine{
		Name:           "AMD Opteron 8222",
		Sockets:        8,
		CoresPerSocket: 2,
		FreqGHz:        3.0,
		Caches: []CacheLevel{
			{Name: "L1", SizeBytes: 64 << 10, AggBandwidth: 675.3},
			{Name: "L2", SizeBytes: 1 << 20, AggBandwidth: 185.7},
		},
		SysBandwidthAgg: 11.9,
		PeakDPAgg:       95.3,
		sysScale: []scalePoint{
			{1, 1.0}, {2, 1.6}, {4, 2.5}, {8, 4.1}, {16, 6.5},
		},
		RemoteFactor: 0.6,
		NetLinkGBs:   2.0, // DDR InfiniBand, the Opteron generation's fabric
	}
}

// XeonX7550 returns the model of the 4-socket oct-core Intel Xeon X7550
// ("Beckton") machine: 32 cores, 4 NUMA nodes, 18 MiB shared L3 per socket.
//
// Scaling anchors follow Section IV-C: near-linear 1→2, ×1.7 to 4 cores,
// ×1.5 to a full socket, ×1.4 per additional socket, 13.7× overall at 32
// cores (and 38.7 GB/s at 16 cores, matching Section IV-D); absolutes
// anchored to the measured 63.0 GB/s with 32 threads.
func XeonX7550() *Machine {
	return &Machine{
		Name:           "Intel Xeon X7550",
		Sockets:        4,
		CoresPerSocket: 8,
		FreqGHz:        2.0,
		Caches: []CacheLevel{
			{Name: "L1", SizeBytes: 32 << 10, AggBandwidth: 819.1},
			{Name: "L2", SizeBytes: 256 << 10, AggBandwidth: 642.8},
			{Name: "L3", SizeBytes: 18 << 20, SharedPerSocket: true, AggBandwidth: 588.6},
		},
		SysBandwidthAgg: 63.0,
		PeakDPAgg:       202.5,
		sysScale: []scalePoint{
			{1, 1.0}, {2, 2.0}, {4, 3.4}, {8, 5.1}, {16, 8.4}, {32, 13.7},
		},
		RemoteFactor: 0.65,
		NetLinkGBs:   4.0, // QDR InfiniBand, the Beckton generation's fabric
	}
}

// NumCores returns the total core count.
func (m *Machine) NumCores() int { return m.Sockets * m.CoresPerSocket }

// NumNodes returns the number of NUMA nodes (= sockets).
func (m *Machine) NumNodes() int { return m.Sockets }

// NodeOfCore maps a core to its NUMA node under the paper's pinning policy:
// cores fill one socket completely before the next is used.
func (m *Machine) NodeOfCore(core int) int {
	n := core / m.CoresPerSocket
	if n < 0 {
		return 0
	}
	if n >= m.Sockets {
		return m.Sockets - 1
	}
	return n
}

// ActiveNodes returns how many NUMA nodes host at least one of the first n
// cores under the socket-by-socket pinning policy.
func (m *Machine) ActiveNodes(n int) int {
	if n <= 0 {
		return 0
	}
	a := (n + m.CoresPerSocket - 1) / m.CoresPerSocket
	if a > m.Sockets {
		a = m.Sockets
	}
	return a
}

// LLC returns the last-level cache.
func (m *Machine) LLC() CacheLevel { return m.Caches[len(m.Caches)-1] }

// LLCSizePerCore returns the LLC capacity available to one core when k
// cores share its socket's caches: private LLCs give the full per-core
// size; shared LLCs divide the socket capacity by the active cores on that
// socket.
func (m *Machine) LLCSizePerCore(coresActiveOnSocket int) int64 {
	llc := m.LLC()
	if !llc.SharedPerSocket {
		return llc.SizeBytes
	}
	if coresActiveOnSocket < 1 {
		coresActiveOnSocket = 1
	}
	if coresActiveOnSocket > m.CoresPerSocket {
		coresActiveOnSocket = m.CoresPerSocket
	}
	return llc.SizeBytes / int64(coresActiveOnSocket)
}

// SysBandwidth returns the aggregate system (main memory) bandwidth in GB/s
// available to the first n cores with NUMA-even page placement — the
// measured STREAM curve of Figure 3. n is clamped to [1, NumCores].
func (m *Machine) SysBandwidth(n int) float64 {
	return m.sysFactor(n) * m.SysBandwidthAgg / m.sysFactor(m.NumCores())
}

// sysFactor interpolates the scaling anchors geometrically in (log n,
// log factor) space.
func (m *Machine) sysFactor(n int) float64 {
	if n <= 1 {
		return m.sysScale[0].factor
	}
	last := m.sysScale[len(m.sysScale)-1]
	if n >= last.cores {
		return last.factor
	}
	for i := 1; i < len(m.sysScale); i++ {
		a, b := m.sysScale[i-1], m.sysScale[i]
		if n <= b.cores {
			t := (math.Log(float64(n)) - math.Log(float64(a.cores))) /
				(math.Log(float64(b.cores)) - math.Log(float64(a.cores)))
			return a.factor * math.Pow(b.factor/a.factor, t)
		}
	}
	return last.factor
}

// LLCBandwidth returns the aggregate last-level-cache bandwidth in GB/s for
// n cores. Cache bandwidth scales linearly with cores (each core has its
// own path to its cache, Figure 3).
func (m *Machine) LLCBandwidth(n int) float64 {
	return m.LLC().AggBandwidth * float64(clamp(n, 1, m.NumCores())) / float64(m.NumCores())
}

// PeakDP returns the aggregate double-precision peak in GFLOPS for n cores
// (linear scaling).
func (m *Machine) PeakDP(n int) float64 {
	return m.PeakDPAgg * float64(clamp(n, 1, m.NumCores())) / float64(m.NumCores())
}

// NodeControllerBandwidth returns the maximum rate in GB/s at which a single
// NUMA node's memory controller can serve traffic: the system bandwidth of
// one fully occupied socket. This is the choke point when NUMA-ignorant
// allocation concentrates pages on one node.
func (m *Machine) NodeControllerBandwidth() float64 {
	return m.SysBandwidth(m.CoresPerSocket)
}

// NetworkBandwidth returns the aggregate rate in GB/s at which ranks
// simulated nodes can exchange halo traffic: one full-duplex link per
// node. This is the bound a distributed (multi-rank) run's ghost-zone
// exchange prices against; a machine without a declared fabric uses
// DefaultNetLinkGBs per link.
func (m *Machine) NetworkBandwidth(ranks int) float64 {
	if ranks < 1 {
		ranks = 1
	}
	link := m.NetLinkGBs
	if link <= 0 {
		link = DefaultNetLinkGBs
	}
	return link * float64(ranks)
}

// InterconnectBandwidth returns the aggregate rate in GB/s at which n cores
// can pull traffic across sockets: the system bandwidth at that occupancy
// discounted by the HyperTransport/QPI efficiency (the remote-access
// penalty of Table I). This is the bound remote-heavy page placements run
// into.
func (m *Machine) InterconnectBandwidth(n int) float64 {
	return m.RemoteFactor * m.SysBandwidth(n)
}

func (m *Machine) String() string {
	return fmt.Sprintf("%s: %d sockets × %d cores, %.1f GHz, %d NUMA nodes, sys %.1f GB/s, peak %.1f GFLOPS",
		m.Name, m.Sockets, m.CoresPerSocket, m.FreqGHz, m.NumNodes(), m.SysBandwidthAgg, m.PeakDPAgg)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
