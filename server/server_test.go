package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nustencil"
)

// tinySpec is a job small enough that a full submit→result round trip
// is milliseconds.
func tinySpec(tenant string) JobSpec {
	return JobSpec{
		Tenant: tenant,
		Problem: nustencil.Config{
			Dims:      []int{18, 18, 18},
			Scheme:    nustencil.NuCORALS,
			Workers:   2,
			NUMANodes: 2,
		},
		Run: nustencil.RunSpec{Timesteps: 2},
	}
}

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (int, submitResponse, string) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var ack submitResponse
	json.Unmarshal(raw, &ack)
	return resp.StatusCode, ack, string(raw)
}

// pollJob polls until the job reaches a terminal state.
func pollJob(t *testing.T, ts *httptest.Server, id string) jobDoc {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish in time", id)
		}
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var doc jobDoc
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if doc.State == Done || doc.State == Failed {
			return doc
		}
		time.Sleep(time.Millisecond)
	}
}

func getText(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// TestSubmitPollResult is the basic serving round trip: submit a
// counted job, poll it to completion, read the result and both scrape
// endpoints.
func TestSubmitPollResult(t *testing.T) {
	srv := New(Config{Executors: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := tinySpec("acme")
	spec.Run.Counters = true
	spec.Run.SamplePeriod = -1
	code, ack, raw := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	if ack.ID == "" || ack.State != Queued {
		t.Fatalf("ack: %+v", ack)
	}

	doc := pollJob(t, ts, ack.ID)
	if doc.State != Done {
		t.Fatalf("job failed: %+v", doc)
	}
	if doc.Result == nil || doc.Result.Report.Updates <= 0 {
		t.Fatalf("missing result: %+v", doc)
	}
	if doc.Result.Counters == nil {
		t.Fatal("counted job returned no counters")
	}
	if doc.Tenant != "acme" {
		t.Fatalf("tenant: %q", doc.Tenant)
	}

	// The counted job is a live Prometheus scrape target.
	code, text := getText(t, ts.URL+"/jobs/"+ack.ID+"/metrics")
	if code != http.StatusOK || !strings.Contains(text, "nustencil_bound_binding") {
		t.Fatalf("job metrics: %d\n%s", code, text)
	}
	code, text = getText(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		`nustencil_server_jobs_total{status="completed"} 1`,
		`nustencil_server_tenant_jobs_total{tenant="acme",status="completed"} 1`,
		"nustencil_sim_updates_total",
		"nustencil_server_job_latency_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestSubmitValidation: malformed specs are refused with 400 at
// admission, not turned into failed jobs.
func TestSubmitValidation(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bad := []JobSpec{
		{}, // no dims
		{Problem: nustencil.Config{Dims: []int{18, 1, 18}}},                                     // dim too small
		{Problem: nustencil.Config{Dims: []int{18, 18}}, Init: "rainbow"},                       // unknown init
		{Problem: nustencil.Config{Dims: []int{18, 18}}, Run: nustencil.RunSpec{Timesteps: -1}}, // negative steps
	}
	for i, spec := range bad {
		if code, _, raw := postJob(t, ts, spec); code != http.StatusBadRequest {
			t.Errorf("bad spec %d: got %d %s", i, code, raw)
		}
	}
	// A field JobSpec does not have, here the removed static_schedule, is a
	// decode error, not a silently ignored request.
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"problem": {"dims": [18,18], "static_schedule": true}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("spec with an unknown field: got %d", resp.StatusCode)
	}

	// Admission limits.
	srv2 := New(Config{Limits: Limits{MaxCells: 1000, MaxTimesteps: 5}})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	big := tinySpec("t")
	if code, _, raw := postJob(t, ts2, big); code != http.StatusBadRequest {
		t.Errorf("over-cells spec: got %d %s", code, raw)
	}
	small := JobSpec{Problem: nustencil.Config{Dims: []int{8, 8}}, Run: nustencil.RunSpec{Timesteps: 50}}
	if code, _, raw := postJob(t, ts2, small); code != http.StatusBadRequest {
		t.Errorf("over-steps spec: got %d %s", code, raw)
	}
}

// A banded spec stores one grid-sized band per stencil point, so admission
// bounds cells × points, not just cells: a 4096-cell 1D spec of order 2047
// would make NewSolver allocate 134 MB of coefficients under a 4096-cell
// limit. A first-order 3D banded spec of exactly the limit still runs.
func TestSubmitBoundsBandedCoefficients(t *testing.T) {
	srv := New(Config{Executors: 1, Limits: Limits{MaxCells: 4096, MaxTimesteps: 4}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	deep := JobSpec{
		Problem: nustencil.Config{Dims: []int{4096}, Order: 2047, Banded: true, Workers: 1},
		Run:     nustencil.RunSpec{Timesteps: 1},
	}
	if code, _, raw := postJob(t, ts, deep); code != http.StatusBadRequest {
		t.Fatalf("order-2047 banded spec: got %d %s", code, raw)
	}
	cube := JobSpec{
		Problem: nustencil.Config{Dims: []int{16, 16, 16}, Banded: true, Workers: 1},
		Run:     nustencil.RunSpec{Timesteps: 2},
	}
	code, ack, raw := postJob(t, ts, cube)
	if code != http.StatusAccepted {
		t.Fatalf("16³ banded spec: got %d %s", code, raw)
	}
	if doc := pollJob(t, ts, ack.ID); doc.State != Done {
		t.Fatalf("16³ banded job: %+v", doc)
	}
}

// executorSpecs ask the executor for more than admission allows: a
// million workers, a million ranks, and two ranks of a chare factor whose
// product with them overflows. No test may execute one: a million workers
// are a million goroutines, and with pin_threads as many OS threads.
var executorSpecs = []JobSpec{
	{Problem: nustencil.Config{Dims: []int{8, 8, 8}, Workers: 1 << 20}, Run: nustencil.RunSpec{Timesteps: 1}},
	{Problem: nustencil.Config{Dims: []int{8, 8, 8}, Ranks: 1 << 20}, Run: nustencil.RunSpec{Timesteps: 1}},
	{Problem: nustencil.Config{Dims: []int{8, 8, 8}, Ranks: 2, ChareFactor: math.MaxInt}, Run: nustencil.RunSpec{Timesteps: 1}},
}

// TestSubmitBoundsExecutorSize: admission refuses the executorSpecs with
// 400, both in validate and through POST /jobs to a server whose job body
// is a stub, and admits a spec exactly at maxWorkers, maxRanks and
// maxChares.
func TestSubmitBoundsExecutorSize(t *testing.T) {
	srv := New(Config{Executors: 1, runJob: func(context.Context, JobSpec) (*nustencil.RunOutput, error) {
		return &nustencil.RunOutput{}, nil
	}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i, spec := range executorSpecs {
		if err := spec.withDefaults().validate(Limits{}); !errors.Is(err, ErrInvalidJob) {
			t.Errorf("spec %d: validate returned %v, want ErrInvalidJob", i, err)
		}
		if code, _, raw := postJob(t, ts, spec); code != http.StatusBadRequest {
			t.Errorf("spec %d: got %d %s", i, code, raw)
		}
	}
	at := JobSpec{Problem: nustencil.Config{
		Dims: []int{8, 8, 8}, Workers: maxWorkers, Ranks: maxRanks, ChareFactor: maxChares / maxRanks,
	}}
	if err := at.withDefaults().validate(Limits{}); err != nil {
		t.Errorf("spec at the bounds refused: %v", err)
	}
	// A chare factor of 0 counts as dist.DefaultChareFactor (4).
	if !charesFit(maxChares/4, 0) || charesFit(maxChares/4+1, 0) {
		t.Errorf("charesFit does not count a chare factor of 0 as 4")
	}
}

// TestQuotaRejection drives the coordinator into both quota walls with
// a blocking job body, asserting 429s for the overflow and completion
// for everything admitted.
func TestQuotaRejection(t *testing.T) {
	release := make(chan struct{})
	cfg := Config{
		Executors:        1,
		QueueDepth:       2,
		TenantQueueDepth: 1,
		runJob: func(ctx context.Context, spec JobSpec) (*nustencil.RunOutput, error) {
			select {
			case <-release:
				return &nustencil.RunOutput{}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
	srv := New(cfg)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Job 1 occupies the single executor.
	code, first, raw := postJob(t, ts, tinySpec("a"))
	if code != http.StatusAccepted {
		t.Fatalf("job 1: %d %s", code, raw)
	}
	waitRunning(t, srv, first.ID)

	// Job 2 queues (tenant a's single queue slot).
	if code, _, raw := postJob(t, ts, tinySpec("a")); code != http.StatusAccepted {
		t.Fatalf("job 2: %d %s", code, raw)
	}
	// Job 3 breaches tenant a's queue quota.
	if code, _, raw := postJob(t, ts, tinySpec("a")); code != http.StatusTooManyRequests {
		t.Fatalf("job 3 (tenant quota): %d %s", code, raw)
	}
	// Job 4 (tenant b) fills the global queue.
	if code, _, raw := postJob(t, ts, tinySpec("b")); code != http.StatusAccepted {
		t.Fatalf("job 4: %d %s", code, raw)
	}
	// Job 5 (tenant c) breaches the global queue bound.
	if code, _, raw := postJob(t, ts, tinySpec("c")); code != http.StatusTooManyRequests {
		t.Fatalf("job 5 (queue full): %d %s", code, raw)
	}

	close(release)
	for _, j := range srv.Coordinator().Jobs() {
		if doc := pollJob(t, ts, j.ID); doc.State != Done {
			t.Errorf("admitted job %s ended %s: %s", j.ID, doc.State, doc.Error)
		}
	}

	s := srv.Coordinator().Metrics().Snapshot()
	if s.Rejected != 2 || s.Completed != 3 {
		t.Errorf("metrics: rejected %d completed %d, want 2 and 3", s.Rejected, s.Completed)
	}
}

func waitRunning(t *testing.T, srv *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := srv.Coordinator().Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == Running {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadlineExpiryIsolation: a job whose deadline expires fails with
// the expiry recorded — and only that job. Other tenants' jobs on the
// same server complete untouched, because each job runs on its own
// solver (poison cannot leak).
func TestDeadlineExpiryIsolation(t *testing.T) {
	srv := New(Config{Executors: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A deliberately over-budget job: 1 ms for a problem that takes far
	// longer (it may also expire while still queued — both are the same
	// contract).
	doomed := JobSpec{
		Tenant: "doomed",
		Problem: nustencil.Config{
			Dims:      []int{66, 66, 66},
			Scheme:    nustencil.NuCORALS,
			Workers:   2,
			NUMANodes: 2,
		},
		Run:        nustencil.RunSpec{Timesteps: 60},
		DeadlineMS: 1,
	}
	code, ackDoomed, raw := postJob(t, ts, doomed)
	if code != http.StatusAccepted {
		t.Fatalf("doomed: %d %s", code, raw)
	}
	code, ackOK, raw := postJob(t, ts, tinySpec("bystander"))
	if code != http.StatusAccepted {
		t.Fatalf("bystander: %d %s", code, raw)
	}

	docDoomed := pollJob(t, ts, ackDoomed.ID)
	if docDoomed.State != Failed || !docDoomed.Expired {
		t.Fatalf("doomed job: %+v", docDoomed)
	}
	docOK := pollJob(t, ts, ackOK.ID)
	if docOK.State != Done {
		t.Fatalf("bystander harmed by the doomed job: %+v", docOK)
	}

	s := srv.Coordinator().Metrics().Snapshot()
	if s.Expired != 1 {
		t.Errorf("expired metric = %d, want 1", s.Expired)
	}
	if ten := s.Tenants["bystander"]; ten.Completed != 1 || ten.Failed != 0 {
		t.Errorf("bystander tenant metrics: %+v", ten)
	}
}

// crashSpecs once panicked inside NewSolver on the executor goroutine and
// took the daemon down with every tenant's jobs: a negative order, an
// order so large that 2·order+1 wraps, and a coefficient list of the wrong
// length. All three pass admission.
var crashSpecs = []string{
	`{"problem":{"dims":[8,8],"order":-1},"run":{"timesteps":1}}`,
	fmt.Sprintf(`{"problem":{"dims":[8,8],"order":%d},"run":{"timesteps":1}}`, math.MaxInt/2+1),
	`{"problem":{"dims":[8,8],"coeffs":[0.5,0.5]},"run":{"timesteps":1}}`,
}

// TestCrashSpecsFailOnlyTheirJob: each crash spec becomes a failed job,
// and the server then completes the next one.
func TestCrashSpecsFailOnlyTheirJob(t *testing.T) {
	srv := New(Config{Executors: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, body := range crashSpecs {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ack submitResponse
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: status %d, %v", body, resp.StatusCode, err)
		}
		if doc := pollJob(t, ts, ack.ID); doc.State != Failed || doc.Error == "" {
			t.Errorf("%s: job ended %s %q, want failed with an error", body, doc.State, doc.Error)
		}
	}
	code, ack, raw := postJob(t, ts, tinySpec("next"))
	if code != http.StatusAccepted {
		t.Fatalf("next job: %d %s", code, raw)
	}
	if doc := pollJob(t, ts, ack.ID); doc.State != Done {
		t.Fatalf("next job after the crash specs: %+v", doc)
	}
}

// TestPanickingJobFailsAlone: a job body that panics fails its own job,
// with the panic value in its error, and the one executor goes on to
// complete the next job.
func TestPanickingJobFailsAlone(t *testing.T) {
	srv := New(Config{
		Executors: 1,
		runJob: func(ctx context.Context, spec JobSpec) (*nustencil.RunOutput, error) {
			if spec.Tenant == "crash" {
				panic("kernel exploded")
			}
			return &nustencil.RunOutput{}, nil
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, tc := range []struct {
		tenant string
		state  JobState
	}{{"crash", Failed}, {"next", Done}} {
		code, ack, raw := postJob(t, ts, tinySpec(tc.tenant))
		if code != http.StatusAccepted {
			t.Fatalf("%s: %d %s", tc.tenant, code, raw)
		}
		if doc := pollJob(t, ts, ack.ID); doc.State != tc.state {
			t.Fatalf("%s job: %+v, want %s", tc.tenant, doc, tc.state)
		}
	}
	j := srv.Coordinator().Jobs()[0]
	if !strings.Contains(j.Err, "kernel exploded") {
		t.Errorf("panicked job's error %q does not carry the panic value", j.Err)
	}
	if s := srv.Coordinator().Metrics().Snapshot(); s.Failed != 1 || s.Completed != 1 {
		t.Errorf("metrics: failed %d completed %d, want 1 and 1", s.Failed, s.Completed)
	}
}

// TestDeadlineClampDoesNotOverflow: deadline_ms values whose
// time.Duration would wrap negative clamp to MaxDeadline, as every value
// above it does.
func TestDeadlineClampDoesNotOverflow(t *testing.T) {
	c := NewCoordinator(Config{
		runJob: func(ctx context.Context, spec JobSpec) (*nustencil.RunOutput, error) {
			return &nustencil.RunOutput{}, nil
		},
	})
	defer c.Stop()
	const maxDeadline = 10 * time.Minute
	for _, tc := range []struct {
		ms   int64
		want time.Duration
	}{
		{0, time.Minute},
		{-5, time.Minute},
		{1500, 1500 * time.Millisecond},
		{maxDeadline.Milliseconds(), maxDeadline},
		{maxDeadline.Milliseconds() + 1, maxDeadline},
		{9_223_372_036_854, maxDeadline},
		{9_223_372_036_855, maxDeadline},
		{1e13, maxDeadline},
		{math.MaxInt64, maxDeadline},
	} {
		spec := tinySpec("t")
		spec.DeadlineMS = tc.ms
		j, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := j.Deadline.Sub(j.Submitted); got != tc.want {
			t.Errorf("deadline_ms %d: Deadline - Submitted = %v, want %v", tc.ms, got, tc.want)
		}
	}
}

// TestRunLocalDeadlinePoison pins the poison contract at the job-body
// level: an expired context both fails the run and reports the solver's
// poison, so errors.Is sees ErrPoisoned and DeadlineExceeded together.
func TestRunLocalDeadlinePoison(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := RunLocal(ctx, tinySpec("t"))
	if err == nil {
		t.Fatal("expired RunLocal succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error does not carry DeadlineExceeded: %v", err)
	}
	if !errors.Is(err, nustencil.ErrPoisoned) {
		t.Errorf("error does not carry ErrPoisoned: %v", err)
	}
}

// TestShutdownFailsQueuedJobs: Stop fails still-queued jobs and refuses
// new submissions.
func TestShutdownFailsQueuedJobs(t *testing.T) {
	release := make(chan struct{})
	srv := New(Config{
		Executors: 1,
		runJob: func(ctx context.Context, spec JobSpec) (*nustencil.RunOutput, error) {
			<-release
			return &nustencil.RunOutput{}, nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, running, _ := postJob(t, ts, tinySpec("a"))
	waitRunning(t, srv, running.ID)
	_, queued, _ := postJob(t, ts, tinySpec("a"))

	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	srv.Close()

	j, err := srv.Coordinator().Job(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != Failed || !strings.Contains(j.Err, "shutting down") {
		t.Fatalf("queued job after shutdown: %+v", j)
	}
	if _, err := srv.Coordinator().Submit(tinySpec("a")); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after shutdown: %v", err)
	}
}

// TestShutdownMetricsConservation: jobs drained by Stop are recorded, so
// the lifecycle counters reconcile — every admitted job ends up exactly
// once in completed or failed, the gauges return to zero, and the
// latency/queue-wait histograms saw every finished job.
func TestShutdownMetricsConservation(t *testing.T) {
	release := make(chan struct{})
	c := NewCoordinator(Config{
		Executors:        1,
		TenantQueueDepth: 2,
		runJob: func(ctx context.Context, spec JobSpec) (*nustencil.RunOutput, error) {
			<-release
			return &nustencil.RunOutput{}, nil
		},
	})

	first, err := c.Submit(tinySpec("a"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		j, err := c.Job(first.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == Running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started: %+v", first.ID, j)
		}
		time.Sleep(time.Millisecond)
	}
	for _, tenant := range []string{"a", "b", "b"} {
		if _, err := c.Submit(tinySpec(tenant)); err != nil {
			t.Fatal(err)
		}
	}
	// A quota rejection must stay outside the submitted/finished identity.
	if _, err := c.Submit(tinySpec("b")); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("third queued job for tenant b: %v", err)
	}

	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	c.Stop()

	s := c.Metrics().Snapshot()
	if s.Submitted != 4 || s.Rejected != 1 {
		t.Fatalf("admission counters: %+v", s)
	}
	if s.Submitted != s.Completed+s.Failed {
		t.Errorf("conservation violated: submitted %d != completed %d + failed %d",
			s.Submitted, s.Completed, s.Failed)
	}
	if s.Completed != 1 || s.Failed != 3 || s.Expired != 0 {
		t.Errorf("outcome counters: %+v", s)
	}
	if s.QueueDepth != 0 || s.Running != 0 {
		t.Errorf("gauges after Stop: depth=%d running=%d", s.QueueDepth, s.Running)
	}
	if s.Latency.N != s.Completed+s.Failed || s.QueueWait.N != s.Completed+s.Failed {
		t.Errorf("histogram counts: latency %d queueWait %d, want %d",
			s.Latency.N, s.QueueWait.N, s.Completed+s.Failed)
	}
	for name, ten := range s.Tenants {
		if ten.Submitted != ten.Completed+ten.Failed {
			t.Errorf("tenant %q conservation violated: %+v", name, ten)
		}
	}
}

// TestJobNotFound: unknown IDs 404.
func TestJobNotFound(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, _ := getText(t, ts.URL+"/jobs/job-99999999"); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", code)
	}
	if code, _ := getText(t, ts.URL+"/jobs/job-99999999/metrics"); code != http.StatusNotFound {
		t.Fatalf("unknown job metrics: %d", code)
	}
}

// TestReplayByteForByte: a JobSpec re-marshals byte-identically after a
// round trip (the stencil-replay -job contract), including multi-key
// scheme_params, and replaying the spec reproduces the same updates.
func TestReplayByteForByte(t *testing.T) {
	spec := JobSpec{
		Tenant: "replay",
		Problem: nustencil.Config{
			Dims:      []int{20, 20, 20},
			Scheme:    nustencil.NuCORALS,
			Workers:   2,
			NUMANodes: 2,
			SchemeParams: map[string]int{
				"tau": 4, "baseHeight": 8, "baseExtent": 16, "baseUnit": 18,
			},
		},
		Run: nustencil.RunSpec{Timesteps: 3},
	}
	first, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var decoded JobSpec
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("JobSpec JSON not deterministic:\n%s\n%s", first, second)
	}

	out1, err := RunLocal(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := RunLocal(context.Background(), decoded)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Report.Updates != out2.Report.Updates || out1.Report.Tiles != out2.Report.Tiles {
		t.Fatalf("replay diverged: %d/%d vs %d/%d",
			out1.Report.Updates, out1.Report.Tiles, out2.Report.Updates, out2.Report.Tiles)
	}
}
