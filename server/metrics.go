package server

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"nustencil"
	"nustencil/internal/histo"
	"nustencil/internal/prom"
)

// Metrics is the server's counter registry: job lifecycle totals,
// per-tenant accounting, latency histograms, and the aggregated
// simulated performance counters of every counted job — the live
// /metrics equivalent of stencil-run's -prom output. Server-side
// operations are not hot paths (one update per job transition), so a
// single mutex guards the registry.
type Metrics struct {
	mu sync.Mutex

	start      time.Time
	submitted  int64
	rejected   int64
	completed  int64
	failed     int64
	expired    int64
	queueDepth int64
	running    int64

	latency   histo.Hist // submission → finish, completed + failed
	queueWait histo.Hist // submission → execution start

	tenants map[string]*tenantMetrics

	// Aggregated simulated counters over counted jobs.
	simUpdates      int64
	simFlops        int64
	simLLCBytes     int64
	simLocalBytes   int64
	simRemoteBytes  int64
	simNetworkBytes int64

	// Aggregated distributed-runtime stats over multi-rank jobs.
	distJobs           map[int]int64 // by rank count
	distHaloBytes      int64
	distMigrations     int64
	distMigrationBytes int64
}

// tenantMetrics is one tenant's share.
type tenantMetrics struct {
	submitted int64
	rejected  int64
	completed int64
	failed    int64
	latency   histo.Hist
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		start:    time.Now(),
		tenants:  make(map[string]*tenantMetrics),
		distJobs: make(map[int]int64),
	}
}

func (m *Metrics) tenant(name string) *tenantMetrics {
	t := m.tenants[name]
	if t == nil {
		t = &tenantMetrics{}
		m.tenants[name] = t
	}
	return t
}

// Submitted records one admitted job.
func (m *Metrics) Submitted(tenant string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.submitted++
	m.tenant(tenant).submitted++
}

// Rejected records one refused submission (quota or validation).
func (m *Metrics) Rejected(tenant string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rejected++
	m.tenant(tenant).rejected++
}

// Completed records one successful job with its total latency and
// queue wait.
func (m *Metrics) Completed(tenant string, latency, queueWait time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.completed++
	m.latency.Observe(latency)
	m.queueWait.Observe(queueWait)
	t := m.tenant(tenant)
	t.completed++
	t.latency.Observe(latency)
}

// Failed records one failed job; expired marks deadline expiry.
func (m *Metrics) Failed(tenant string, expired bool, latency, queueWait time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failed++
	if expired {
		m.expired++
	}
	m.latency.Observe(latency)
	m.queueWait.Observe(queueWait)
	t := m.tenant(tenant)
	t.failed++
	t.latency.Observe(latency)
}

// SetQueueDepth updates the queued-jobs gauge.
func (m *Metrics) SetQueueDepth(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queueDepth = n
}

// AddRunning adjusts the running-jobs gauge.
func (m *Metrics) AddRunning(d int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.running += d
}

// AddSim folds one counted job's simulated performance counters into
// the server totals.
func (m *Metrics) AddSim(pc *nustencil.PerfCounters) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.simUpdates += pc.Updates()
	m.simFlops += pc.Flops()
	m.simLLCBytes += pc.LLCBytes()
	m.simLocalBytes += pc.LocalBytes()
	m.simRemoteBytes += pc.RemoteBytes()
	m.simNetworkBytes += pc.NetworkBytes()
}

// AddDist folds one multi-rank job's distributed-runtime stats into the
// server totals, so scrapes see multi-rank traffic whether or not the
// job was counted.
func (m *Metrics) AddDist(d *nustencil.DistStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.distJobs[d.Ranks]++
	m.distHaloBytes += d.HaloBytes
	m.distMigrations += d.Migrations
	m.distMigrationBytes += d.MigrationBytes
}

// Snapshot is a consistent copy of the registry for rendering.
type Snapshot struct {
	UptimeSeconds float64
	Submitted     int64
	Rejected      int64
	Completed     int64
	Failed        int64
	Expired       int64
	QueueDepth    int64
	Running       int64

	Latency   histo.Hist
	QueueWait histo.Hist

	Tenants map[string]TenantSnapshot

	SimUpdates      int64
	SimFlops        int64
	SimLLCBytes     int64
	SimLocalBytes   int64
	SimRemoteBytes  int64
	SimNetworkBytes int64

	DistJobs           map[int]int64
	DistHaloBytes      int64
	DistMigrations     int64
	DistMigrationBytes int64
}

// TenantSnapshot is one tenant's share of a Snapshot.
type TenantSnapshot struct {
	Submitted int64
	Rejected  int64
	Completed int64
	Failed    int64
	Latency   histo.Hist
}

// Snapshot copies the registry under the lock.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		UptimeSeconds:   time.Since(m.start).Seconds(),
		Submitted:       m.submitted,
		Rejected:        m.rejected,
		Completed:       m.completed,
		Failed:          m.failed,
		Expired:         m.expired,
		QueueDepth:      m.queueDepth,
		Running:         m.running,
		Latency:         m.latency,
		QueueWait:       m.queueWait,
		Tenants:         make(map[string]TenantSnapshot, len(m.tenants)),
		SimUpdates:      m.simUpdates,
		SimFlops:        m.simFlops,
		SimLLCBytes:     m.simLLCBytes,
		SimLocalBytes:   m.simLocalBytes,
		SimRemoteBytes:  m.simRemoteBytes,
		SimNetworkBytes: m.simNetworkBytes,

		DistJobs:           make(map[int]int64, len(m.distJobs)),
		DistHaloBytes:      m.distHaloBytes,
		DistMigrations:     m.distMigrations,
		DistMigrationBytes: m.distMigrationBytes,
	}
	for ranks, n := range m.distJobs {
		s.DistJobs[ranks] = n
	}
	for name, t := range m.tenants {
		s.Tenants[name] = TenantSnapshot{
			Submitted: t.submitted,
			Rejected:  t.rejected,
			Completed: t.completed,
			Failed:    t.failed,
			Latency:   t.latency,
		}
	}
	return s
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format. Tenant series are sorted by name, so the output is
// deterministic for a fixed registry state.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	s := m.Snapshot()
	p := prom.NewWriter(w)
	p.Family("nustencil_server_uptime_seconds", "gauge", "Seconds since the server started.")
	p.Float("nustencil_server_uptime_seconds", s.UptimeSeconds)
	p.Family("nustencil_server_jobs_total", "counter", "Jobs by lifecycle outcome.")
	p.Int("nustencil_server_jobs_total", s.Submitted, "status", "submitted")
	p.Int("nustencil_server_jobs_total", s.Rejected, "status", "rejected")
	p.Int("nustencil_server_jobs_total", s.Completed, "status", "completed")
	p.Int("nustencil_server_jobs_total", s.Failed, "status", "failed")
	p.Int("nustencil_server_jobs_total", s.Expired, "status", "expired")
	p.Family("nustencil_server_queue_depth", "gauge", "Jobs queued, not yet running.")
	p.Int("nustencil_server_queue_depth", s.QueueDepth)
	p.Family("nustencil_server_running_jobs", "gauge", "Jobs currently executing.")
	p.Int("nustencil_server_running_jobs", s.Running)

	p.Summary("nustencil_server_job_latency_seconds", "Job latency, submission to finish.", &s.Latency, 0.5, 0.9, 0.99)
	p.Summary("nustencil_server_queue_wait_seconds", "Queue wait, submission to execution start.", &s.QueueWait, 0.5, 0.9, 0.99)

	names := make([]string, 0, len(s.Tenants))
	for name := range s.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	p.Family("nustencil_server_tenant_jobs_total", "counter", "Per-tenant jobs by outcome.")
	for _, name := range names {
		t := s.Tenants[name]
		p.Int("nustencil_server_tenant_jobs_total", t.Submitted, "tenant", name, "status", "submitted")
		p.Int("nustencil_server_tenant_jobs_total", t.Rejected, "tenant", name, "status", "rejected")
		p.Int("nustencil_server_tenant_jobs_total", t.Completed, "tenant", name, "status", "completed")
		p.Int("nustencil_server_tenant_jobs_total", t.Failed, "tenant", name, "status", "failed")
	}
	p.Family("nustencil_server_tenant_latency_seconds", "summary", "Per-tenant job latency quantiles.")
	for _, name := range names {
		t := s.Tenants[name]
		for _, q := range []float64{0.5, 0.99} {
			p.Float("nustencil_server_tenant_latency_seconds", t.Latency.Quantile(q).Seconds(), "tenant", name, "quantile", prom.G(q))
		}
	}

	p.Family("nustencil_sim_updates_total", "counter", "Simulated point updates over counted jobs.")
	p.Int("nustencil_sim_updates_total", s.SimUpdates)
	p.Family("nustencil_sim_flops_total", "counter", "Simulated floating-point operations over counted jobs.")
	p.Int("nustencil_sim_flops_total", s.SimFlops)
	p.Family("nustencil_sim_llc_bytes_total", "counter", "Simulated last-level-cache bytes over counted jobs.")
	p.Int("nustencil_sim_llc_bytes_total", s.SimLLCBytes)
	p.Family("nustencil_sim_main_bytes_total", "counter", "Simulated main-memory bytes over counted jobs, by locality.")
	p.Int("nustencil_sim_main_bytes_total", s.SimLocalBytes, "locality", "local")
	p.Int("nustencil_sim_main_bytes_total", s.SimRemoteBytes, "locality", "remote")
	p.Family("nustencil_sim_network_bytes_total", "counter", "Simulated inter-rank network bytes over counted jobs.")
	p.Int("nustencil_sim_network_bytes_total", s.SimNetworkBytes)

	ranksList := make([]int, 0, len(s.DistJobs))
	for r := range s.DistJobs {
		ranksList = append(ranksList, r)
	}
	sort.Ints(ranksList)
	p.Family("nustencil_server_dist_jobs_total", "counter", "Completed multi-rank jobs by rank count.")
	for _, r := range ranksList {
		p.Int("nustencil_server_dist_jobs_total", s.DistJobs[r], "ranks", strconv.Itoa(r))
	}
	p.Family("nustencil_server_dist_network_bytes_total", "counter", "Distributed-runtime network bytes by kind.")
	p.Int("nustencil_server_dist_network_bytes_total", s.DistHaloBytes, "kind", "halo")
	p.Int("nustencil_server_dist_network_bytes_total", s.DistMigrationBytes, "kind", "migration")
	p.Family("nustencil_server_dist_migrations_total", "counter", "Chare migrations across completed multi-rank jobs.")
	p.Int("nustencil_server_dist_migrations_total", s.DistMigrations)
	return p.Err()
}
