package server

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"nustencil"
)

// uptimeLine matches the one wall-clock-dependent sample of a scrape.
var uptimeLine = regexp.MustCompile(`(?m)^nustencil_server_uptime_seconds .*$`)

// TestMetricsPrometheusGolden pins the /metrics exposition byte for byte
// for a registry fed fixed durations (the uptime sample is masked).
func TestMetricsPrometheusGolden(t *testing.T) {
	m := NewMetrics()
	m.Submitted("acme")
	m.Submitted("acme")
	m.Submitted("beta")
	m.Rejected("beta")
	m.Completed("acme", 3*time.Millisecond, time.Millisecond)
	m.Completed("acme", 40*time.Millisecond, 20*time.Millisecond)
	m.Failed("beta", true, 10*time.Millisecond, 2*time.Millisecond)
	m.SetQueueDepth(2)
	m.AddRunning(1)
	m.AddDist(&nustencil.DistStats{Ranks: 2, HaloBytes: 4096, Migrations: 3, MigrationBytes: 1024})
	m.AddDist(&nustencil.DistStats{Ranks: 4, HaloBytes: 100})

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := uptimeLine.ReplaceAllString(buf.String(), "nustencil_server_uptime_seconds UPTIME")
	if got != metricsGolden {
		t.Errorf("exposition changed:\n--- got\n%s\n--- want\n%s", got, metricsGolden)
	}
}

const metricsGolden = `# HELP nustencil_server_uptime_seconds Seconds since the server started.
# TYPE nustencil_server_uptime_seconds gauge
nustencil_server_uptime_seconds UPTIME
# HELP nustencil_server_jobs_total Jobs by lifecycle outcome.
# TYPE nustencil_server_jobs_total counter
nustencil_server_jobs_total{status="submitted"} 3
nustencil_server_jobs_total{status="rejected"} 1
nustencil_server_jobs_total{status="completed"} 2
nustencil_server_jobs_total{status="failed"} 1
nustencil_server_jobs_total{status="expired"} 1
# HELP nustencil_server_queue_depth Jobs queued, not yet running.
# TYPE nustencil_server_queue_depth gauge
nustencil_server_queue_depth 2
# HELP nustencil_server_running_jobs Jobs currently executing.
# TYPE nustencil_server_running_jobs gauge
nustencil_server_running_jobs 1
# HELP nustencil_server_job_latency_seconds Job latency, submission to finish.
# TYPE nustencil_server_job_latency_seconds summary
nustencil_server_job_latency_seconds{quantile="0.5"} 0.016777216
nustencil_server_job_latency_seconds{quantile="0.9"} 0.067108864
nustencil_server_job_latency_seconds{quantile="0.99"} 0.067108864
nustencil_server_job_latency_seconds_sum 0.053
nustencil_server_job_latency_seconds_count 3
# HELP nustencil_server_queue_wait_seconds Queue wait, submission to execution start.
# TYPE nustencil_server_queue_wait_seconds summary
nustencil_server_queue_wait_seconds{quantile="0.5"} 0.002097152
nustencil_server_queue_wait_seconds{quantile="0.9"} 0.033554432
nustencil_server_queue_wait_seconds{quantile="0.99"} 0.033554432
nustencil_server_queue_wait_seconds_sum 0.023
nustencil_server_queue_wait_seconds_count 3
# HELP nustencil_server_tenant_jobs_total Per-tenant jobs by outcome.
# TYPE nustencil_server_tenant_jobs_total counter
nustencil_server_tenant_jobs_total{tenant="acme",status="submitted"} 2
nustencil_server_tenant_jobs_total{tenant="acme",status="rejected"} 0
nustencil_server_tenant_jobs_total{tenant="acme",status="completed"} 2
nustencil_server_tenant_jobs_total{tenant="acme",status="failed"} 0
nustencil_server_tenant_jobs_total{tenant="beta",status="submitted"} 1
nustencil_server_tenant_jobs_total{tenant="beta",status="rejected"} 1
nustencil_server_tenant_jobs_total{tenant="beta",status="completed"} 0
nustencil_server_tenant_jobs_total{tenant="beta",status="failed"} 1
# HELP nustencil_server_tenant_latency_seconds Per-tenant job latency quantiles.
# TYPE nustencil_server_tenant_latency_seconds summary
nustencil_server_tenant_latency_seconds{tenant="acme",quantile="0.5"} 0.004194304
nustencil_server_tenant_latency_seconds{tenant="acme",quantile="0.99"} 0.067108864
nustencil_server_tenant_latency_seconds{tenant="beta",quantile="0.5"} 0.016777216
nustencil_server_tenant_latency_seconds{tenant="beta",quantile="0.99"} 0.016777216
# HELP nustencil_sim_updates_total Simulated point updates over counted jobs.
# TYPE nustencil_sim_updates_total counter
nustencil_sim_updates_total 0
# HELP nustencil_sim_flops_total Simulated floating-point operations over counted jobs.
# TYPE nustencil_sim_flops_total counter
nustencil_sim_flops_total 0
# HELP nustencil_sim_llc_bytes_total Simulated last-level-cache bytes over counted jobs.
# TYPE nustencil_sim_llc_bytes_total counter
nustencil_sim_llc_bytes_total 0
# HELP nustencil_sim_main_bytes_total Simulated main-memory bytes over counted jobs, by locality.
# TYPE nustencil_sim_main_bytes_total counter
nustencil_sim_main_bytes_total{locality="local"} 0
nustencil_sim_main_bytes_total{locality="remote"} 0
# HELP nustencil_sim_network_bytes_total Simulated inter-rank network bytes over counted jobs.
# TYPE nustencil_sim_network_bytes_total counter
nustencil_sim_network_bytes_total 0
# HELP nustencil_server_dist_jobs_total Completed multi-rank jobs by rank count.
# TYPE nustencil_server_dist_jobs_total counter
nustencil_server_dist_jobs_total{ranks="2"} 1
nustencil_server_dist_jobs_total{ranks="4"} 1
# HELP nustencil_server_dist_network_bytes_total Distributed-runtime network bytes by kind.
# TYPE nustencil_server_dist_network_bytes_total counter
nustencil_server_dist_network_bytes_total{kind="halo"} 4196
nustencil_server_dist_network_bytes_total{kind="migration"} 1024
# HELP nustencil_server_dist_migrations_total Chare migrations across completed multi-rank jobs.
# TYPE nustencil_server_dist_migrations_total counter
nustencil_server_dist_migrations_total 3
`

// TestMetricsTenantLabelEscaping records client-supplied tenant names the
// exposition format cannot carry raw and checks that every label value in
// the scrape uses only the three escapes the format defines (\\, \" and
// \n) and is valid UTF-8.
func TestMetricsTenantLabelEscaping(t *testing.T) {
	m := NewMetrics()
	for _, tenant := range []string{"a\tb", "\xff", `q"uo\te`, "two\nlines"} {
		m.Submitted(tenant)
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"nustencil_server_tenant_jobs_total{tenant=\"a\tb\",status=\"submitted\"} 1\n",
		"nustencil_server_tenant_jobs_total{tenant=\"\uFFFD\",status=\"submitted\"} 1\n",
		`nustencil_server_tenant_jobs_total{tenant="q\"uo\\te",status="submitted"} 1` + "\n",
		`nustencil_server_tenant_jobs_total{tenant="two\nlines",status="submitted"} 1` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape lacks %q", want)
		}
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if err := checkLabelValues(line); err != "" {
			t.Errorf("%s: %q", err, line)
		}
	}
}

// checkLabelValues scans one exposition line's label set and reports the
// first label value that is invalid UTF-8 or uses an undefined escape.
func checkLabelValues(line string) string {
	if strings.HasPrefix(line, "#") {
		return ""
	}
	if !utf8.ValidString(line) {
		return "invalid UTF-8"
	}
	open := strings.IndexByte(line, '{')
	if open < 0 {
		return ""
	}
	inValue := false
	for i := open + 1; i < len(line); i++ {
		c := line[i]
		switch {
		case !inValue && c == '"':
			inValue = true
		case !inValue && c == '}':
			return ""
		case inValue && c == '"':
			inValue = false
		case inValue && c == '\\':
			if i+1 == len(line) || !strings.ContainsRune(`\"n`, rune(line[i+1])) {
				return "undefined escape"
			}
			i++
		}
	}
	return "unterminated label set"
}
