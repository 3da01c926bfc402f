package dist

import (
	"fmt"
	"time"

	"nustencil/internal/trace"
)

// The distributed tracer follows the counter layer's worker-local /
// fold-at-exit discipline: while the run executes, every record is an
// append to a buffer with exactly one writer — an engine worker's shard
// (its chare-steps, their sends, and the halos its drains apply) or the
// barrier records of the Run loop — so tracing adds no atomics and no
// shared locks to the hot path. One fold at Run exit translates the buffers
// into the trace.Trace vocabulary: pid = rank+1 ("rank N" processes),
// tid = chare id ("chare N" threads), spans per chare-step, flow arrows
// per inter-rank halo, instants for migrations and AtSync barriers, and
// per-rank counter tracks.

// spanRec is one chare-step execution.
type spanRec struct {
	chare, step, rank int
	updates           int64
	start             time.Time
	d                 time.Duration
}

// flowRec is one endpoint of a halo flow arrow, identified by the
// receiver-side coordinates both ends know: the destination chare, the
// ghost face (dim, side), and the step the halo feeds. tid is the chare
// the endpoint renders on (sender chare at the start, destination chare
// at the finish).
type flowRec struct {
	destChare, dim, side, step int
	tid, rank                  int
	at                         time.Time
}

// depthRec is one sample of rank's mailbox backlog.
type depthRec struct {
	rank  int
	at    time.Time
	msgs  int
	bytes int64
}

// instantRec is one point-in-time marker recorded at a barrier.
type instantRec struct {
	name      string
	rank, tid int
	at        time.Time
	args      map[string]any
}

// residentRec is one chares-resident sample for one rank.
type residentRec struct {
	rank int
	at   time.Time
	n    int
}

// workerShard is one global worker's private record buffers, padded so
// neighbouring workers' appends do not false-share the slice headers.
type workerShard struct {
	spans    []spanRec
	flows    []flowRec // send endpoints
	finishes []flowRec // receive endpoints, at the drain that applied them
	samples  []depthRec
	_        [32]byte
}

// tracer buffers a distributed run's trace records. Built only when
// Options.Trace is set; a nil tracer is the zero-cost disabled state.
type tracer struct {
	nchares, nd int
	shards      []workerShard
	// instants and resident are written only by the Run loop at quiesced
	// barriers.
	instants []instantRec
	resident []residentRec
}

func newTracer(nchares, nd, workers int) *tracer {
	return &tracer{nchares: nchares, nd: nd, shards: make([]workerShard, workers)}
}

// flowID derives the arrow identity from the receiver-side halo
// coordinates. Each (step, destChare, dim, side) names at most one
// message per run, so starts and finishes pair exactly.
func (tc *tracer) flowID(f flowRec) uint64 {
	sideBit := 0
	if f.side > 0 {
		sideBit = 1
	}
	return uint64((((f.step*tc.nchares)+f.destChare)*tc.nd+f.dim)*2 + sideBit)
}

func (tc *tracer) flowName(f flowRec) string {
	return fmt.Sprintf("halo→c%d d%d t%d", f.destChare, f.dim, f.step)
}

// fold translates the buffered records into tr. Called once, after the
// run has quiesced — nothing is appending concurrently.
func (tc *tracer) fold(tr *trace.Trace, ranks int) {
	for r := 0; r < ranks; r++ {
		tr.SetProcessName(r+1, fmt.Sprintf("rank %d", r))
	}
	named := map[[2]int]bool{}
	nameThread := func(rank, chare int) {
		key := [2]int{rank, chare}
		if !named[key] {
			named[key] = true
			tr.SetThreadName(rank+1, chare, fmt.Sprintf("chare %d", chare))
		}
	}
	for gw := range tc.shards {
		sh := &tc.shards[gw]
		for _, s := range sh.spans {
			nameThread(s.rank, s.chare)
			tr.RecordOn(s.rank+1, s.chare, gw,
				fmt.Sprintf("chare %d step %d", s.chare, s.step),
				s.chare, s.step, s.step+1, s.updates, s.start, s.start.Add(s.d))
		}
		for _, f := range sh.flows {
			tr.FlowStart(tc.flowID(f), tc.flowName(f), f.rank+1, f.tid, f.at)
		}
		for _, f := range sh.finishes {
			tr.FlowFinish(tc.flowID(f), tc.flowName(f), f.rank+1, f.tid, f.at)
		}
		for _, d := range sh.samples {
			tr.AddCounterPid(d.rank+1, "mailbox depth", d.at, float64(d.msgs))
			tr.AddCounterPid(d.rank+1, "halo bytes in flight", d.at, float64(d.bytes))
		}
	}
	for _, in := range tc.instants {
		tr.AddInstant(in.name, in.rank+1, in.tid, in.at, in.args)
	}
	for _, rs := range tc.resident {
		tr.AddCounterPid(rs.rank+1, "chares resident", rs.at, float64(rs.n))
	}
}
