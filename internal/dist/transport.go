package dist

import (
	"sync"
	"time"

	"nustencil/internal/histo"
)

// Msg is one transport message: one face's ghost-zone values for one
// timestep. Halo payloads are packed row-major over the face slab (the
// receiver unpacks with the same traversal, so the wire format is
// deterministic).
type Msg struct {
	// To is the destination rank index.
	To int
	// Chare is the destination chare.
	Chare int
	// Step is the timestep whose reads this halo feeds: the payload was
	// extracted from the sender's buffer of parity Step%2 and lands in
	// the receiver's ghost slab of the same parity.
	Step int
	// Dim and Side name the receiver-side ghost slab (Side -1 is the low
	// face, +1 the high face).
	Dim, Side int
	// Data is the sender's payload buffer, not a copy; how long it stays
	// valid is Transport's payload-lifetime contract.
	Data []float64
	// SentAt is stamped by the sender just before Send; the receiver
	// observes apply-time minus SentAt into the halo-latency histogram.
	SentAt time.Time
}

// Stats is a snapshot of a transport's inter-rank traffic. Payload
// bytes only — 8 bytes per float64 word — so measured halo traffic is
// directly comparable to the memsim network model's word counts.
type Stats struct {
	// Msgs counts inter-rank messages (halo sends).
	Msgs int64
	// HaloBytes counts inter-rank halo payload bytes.
	HaloBytes int64
	// MigrationBytes counts chare-state bytes moved by migrations.
	MigrationBytes int64
	// Migrations counts chare moves between ranks.
	Migrations int64
	// HaloLatency is the latency distribution of inter-rank halo
	// messages, from send to the drain that applies them, and BarrierWait
	// each rank's wait at each segment barrier, from the end of its last
	// chare-step to the end of the segment. Transports leave both
	// zero; the runtime fills them from its rank-local histograms when it
	// snapshots Stats into a Result.
	HaloLatency histo.Hist
	// BarrierWait — see HaloLatency.
	BarrierWait histo.Hist
}

// Bytes is the total inter-rank volume: halos plus migrations.
func (s Stats) Bytes() int64 { return s.HaloBytes + s.MigrationBytes }

// Transport moves messages between ranks. Send is asynchronous and
// never blocks the sender (mailboxes are unbounded: the step-skew bound
// of the halo protocol caps the backlog at one exchange phase per
// neighbor, so unboundedness cannot run away); Recv never blocks. The
// runtime has no receiving goroutine: a chare-step drains its rank's
// mailbox before it runs. Same-rank halo delivery bypasses the
// transport entirely, so every Send is an inter-rank transfer and counts
// toward Stats.
//
// Payload lifetime: a halo's Data is a buffer the sending chare keeps
// for each (face, parity) for the whole run, so Send passes it by
// reference and a Transport may too, as LocalTransport does. The payload
// sent after the sender's step t feeds the receiver's step t+1, and the
// receiver's drain applies it before that step finishes. The sender next
// writes the buffer at the end of its step t+2, which depends on the
// receiver's step t+1, so Data stays valid until the message has been
// received and applied. A Transport that keeps a message past its Recv
// must copy Data in Send.
type Transport interface {
	Send(m Msg)
	// Recv returns the oldest queued message for rank; ok is false when
	// the mailbox is empty.
	Recv(rank int) (m Msg, ok bool)
	// CountMigration records a chare-state transfer between ranks. The
	// in-process transport moves no bytes (ranks share an address
	// space), but the accounting keeps migration traffic visible to the
	// network bound exactly as an RPC transport's serialization would.
	CountMigration(from, to int, bytes int64)
	Stats() Stats
}

// DepthReporter is an optional Transport extension reporting a rank's
// current mailbox backlog. A traced run samples it after each drained halo to
// render the per-rank "mailbox depth" and "halo bytes in flight" counter
// tracks; transports that cannot observe their queues simply don't
// implement it and the tracks are omitted.
type DepthReporter interface {
	Depth(rank int) (msgs int, bytes int64)
}

// LocalTransport is the in-process Transport: one mutex-guarded
// unbounded mailbox per rank.
type LocalTransport struct {
	mu    sync.Mutex
	stats Stats
	boxes []*mailbox
}

type mailbox struct {
	mu    sync.Mutex
	q     []Msg
	head  int
	bytes int64 // payload bytes currently queued
}

// NewLocalTransport builds a transport connecting ranks in-process
// mailboxes.
func NewLocalTransport(ranks int) *LocalTransport {
	t := &LocalTransport{boxes: make([]*mailbox, ranks)}
	for i := range t.boxes {
		t.boxes[i] = &mailbox{}
	}
	return t
}

// Send enqueues m for rank m.To and records its payload volume.
func (t *LocalTransport) Send(m Msg) {
	t.mu.Lock()
	t.stats.Msgs++
	t.stats.HaloBytes += 8 * int64(len(m.Data))
	t.mu.Unlock()

	b := t.boxes[m.To]
	b.mu.Lock()
	b.q = append(b.q, m)
	b.bytes += 8 * int64(len(m.Data))
	b.mu.Unlock()
}

// Recv dequeues rank's oldest message, or reports ok=false on an empty
// mailbox.
func (t *LocalTransport) Recv(rank int) (Msg, bool) {
	b := t.boxes[rank]
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.head >= len(b.q) {
		return Msg{}, false
	}
	m := b.q[b.head]
	b.q[b.head] = Msg{} // release the payload
	b.bytes -= 8 * int64(len(m.Data))
	b.head++
	if b.head == len(b.q) {
		b.q = b.q[:0]
		b.head = 0
	}
	return m, true
}

// CountMigration records migration traffic in the stats.
func (t *LocalTransport) CountMigration(from, to int, bytes int64) {
	t.mu.Lock()
	t.stats.Migrations++
	t.stats.MigrationBytes += bytes
	t.mu.Unlock()
}

// Depth reports rank's current mailbox backlog (DepthReporter).
func (t *LocalTransport) Depth(rank int) (int, int64) {
	b := t.boxes[rank]
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.q) - b.head, b.bytes
}

// Stats snapshots the traffic counters.
func (t *LocalTransport) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}
