package nustencil

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"unsafe"
)

// placementChild marks the fresh process TestFillPlacesPagesOnFillersNodes
// runs its check in.
const placementChild = "NUSTENCIL_PLACEMENT_CHILD"

// nodeOfCPU returns the NUMA node of CPU c, read from sysfs, or -1.
func nodeOfCPU(c int) int {
	ents, err := os.ReadDir("/sys/devices/system/cpu/cpu" + strconv.Itoa(c))
	if err != nil {
		return -1
	}
	for _, e := range ents {
		if n, ok := strings.CutPrefix(e.Name(), "node"); ok {
			if v, err := strconv.Atoi(n); err == nil {
				return v
			}
		}
	}
	return -1
}

// nodeOfAddr returns the NUMA node holding the (already touched) page at
// addr: get_mempolicy with MPOL_F_NODE|MPOL_F_ADDR.
func nodeOfAddr(addr uintptr) (int, error) {
	const mpolFNode, mpolFAddr = 1, 2
	var node int32
	_, _, errno := syscall.Syscall6(syscall.SYS_GET_MEMPOLICY, uintptr(unsafe.Pointer(&node)), 0, 0, addr, mpolFNode|mpolFAddr, 0)
	if errno != 0 {
		return -1, errno
	}
	return int(node), nil
}

// On a multi-node host the fill places the solver's own pages for real: a
// pinned fill of a fresh grid leaves every page of both buffers on the
// node of a worker whose box holds part of that page, or of the huge
// page around it where transparent huge pages may back the heap. Workers
// are pinned to CPU w, so worker w's node is CPU w's. The check runs in a
// fresh process, whose grid comes fresh from the OS: the runtime zeroes
// reused heap memory, and so places it, on the allocating goroutine. It
// skips on a host of one NUMA node.
func TestFillPlacesPagesOnFillersNodes(t *testing.T) {
	// The kernel lists nodes as ranges and commas ("0-1", "0,2"): a list
	// of neither is one node.
	online, err := os.ReadFile("/sys/devices/system/node/online")
	if err != nil || !strings.ContainsAny(string(online), ",-") {
		t.Skip("one NUMA node: page placement cannot differ by worker")
	}
	// The fewest workers, pinned to CPUs 0, 1, …, that span two nodes.
	workers := 0
	for c := 1; c < min(runtime.NumCPU(), 64); c++ {
		if nodeOfCPU(c) != nodeOfCPU(0) {
			workers = c + 1
			break
		}
	}
	if workers == 0 || nodeOfCPU(0) < 0 {
		t.Skip("CPUs 0–63 are on one node, or their nodes are unreadable")
	}
	if os.Getenv(placementChild) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestFillPlacesPagesOnFillersNodes$", "-test.v")
		cmd.Env = append(os.Environ(), placementChild+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("placement check: %v\n%s", err, out)
		}
		t.Logf("%s", out)
		return
	}

	// nuCATS gives each worker a slab of whole planes, 16 planes thick.
	s, err := NewSolver(Config{Dims: []int{16*workers + 2, 66, 66}, Scheme: NuCATS,
		Workers: workers, NUMANodes: 2, PinThreads: true})
	if err != nil {
		t.Fatal(err)
	}
	s.SetInitial(func(pt []int) float64 { return float64(pt[0]) })

	pageBytes := uintptr(os.Getpagesize())
	granule := pageBytes
	if thp, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled"); err == nil && !strings.Contains(string(thp), "[never]") {
		granule = 2 << 20
	}
	// nodeOf[i] is the node of the worker whose box holds cell i.
	nodeOf := make([]int, s.g.Len())
	for w, b := range s.boxes {
		node := nodeOfCPU(w)
		s.g.ForEachRow(b, func(off, n int, _ []int) {
			for i := off; i < off+n; i++ {
				nodeOf[i] = node
			}
		})
	}
	strict := 0
	for buf := 0; buf < 2; buf++ {
		data := s.g.Buf(buf)
		base := uintptr(unsafe.Pointer(&data[0]))
		end := base + uintptr(len(data))*8
		for g := base &^ (granule - 1); g < end; g += granule {
			// The nodes of the workers filling any cell of the granule.
			lo, hi := max(g, base), min(g+granule, end)
			nodes := map[int]bool{}
			for i := (lo - base) / 8; i < (hi-base+7)/8; i++ {
				nodes[nodeOf[i]] = true
			}
			for addr := lo &^ (pageBytes - 1); addr < hi; addr += pageBytes {
				at := max(addr, base)
				got, err := nodeOfAddr(at)
				if err != nil {
					t.Fatalf("get_mempolicy: %v", err)
				}
				if !nodes[got] {
					t.Fatalf("buffer %d: the page at cell %d is on node %d, its fillers on nodes %v", buf, (at-base)/8, got, nodes)
				}
				if len(nodes) == 1 {
					strict++
				}
			}
		}
	}
	t.Logf("%d workers over CPUs 0–%d: every page on a filler's node, %d of them in granules of one node", workers, workers-1, strict)
}
