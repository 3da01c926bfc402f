package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nustencil"
	"nustencil/server"
)

// The serving workload's fixed shape.
const (
	// ServeRate is the open-loop arrival rate in jobs/s, fixed so every
	// commit is offered the same load: about a third of the closed-loop
	// capacity on a quiet benchmark host, and half of it while the host
	// runs slow.
	ServeRate = 100
	// serveExecutors is the server's executor pool size.
	serveExecutors = 2
	// serveSenders are the open-loop generator's sending goroutines and
	// serveCallers the closed loop's clients, all sharing serveConns HTTP
	// connections.
	serveSenders = 2
	serveCallers = 4
	serveConns   = 2
	// Tenants are drawn Zipf(serveZipfS) over serveTenants.
	serveTenants = 6
	serveZipfS   = 1.5
	// servePoll is the closed-loop callers' status polling period.
	servePoll = time.Millisecond
)

// ServeParams are the serving workload's run lengths.
type ServeParams struct {
	// OpenSeconds is the open-loop schedule length in a run of
	// ReferenceSeconds: ServeRate·OpenSeconds jobs.
	OpenSeconds float64
	// ClosedJobs is the closed-loop job count in a run of ReferenceSeconds.
	ClosedJobs int
}

// JobKind is one entry of the serving job mix.
type JobKind struct {
	Name string
	// Percent is the kind's share of jobs.
	Percent int
	Spec    server.JobSpec
}

// JobMix returns the serving job mix. Single-process jobs run one worker
// each: the server's executor pool, not the engine, spreads them over
// the cores. Small constant jobs finish in a few milliseconds and the
// rest take two to four times longer; with the small share at exactly
// half, the median latency would fall in the gap between the two and
// jump between runs, so the small share is 60%.
func JobMix() []JobKind {
	cube := func(n int) []int { return []int{n, n, n} }
	job := func(p nustencil.Config, steps int) server.JobSpec {
		return server.JobSpec{Problem: p, Run: nustencil.RunSpec{Timesteps: steps}}
	}
	return []JobKind{
		{"34-const-nuCORALS", 60, job(nustencil.Config{Dims: cube(34), Scheme: nustencil.NuCORALS, Workers: 1}, 8)},
		{"34-banded-nuCATS", 15, job(nustencil.Config{Dims: cube(34), Banded: true, Scheme: nustencil.NuCATS, Workers: 1}, 8)},
		{"50-order2-NaiveSSE", 15, job(nustencil.Config{Dims: cube(50), Order: 2, Scheme: nustencil.Naive, Workers: 1}, 4)},
		{"34-ranks2", 10, job(nustencil.Config{Dims: cube(34), Scheme: nustencil.NuCORALS, Workers: 2, Ranks: 2}, 8)},
	}
}

// Draw is one generated job: its tenant, its kind (an index into
// JobMix) and, in the open loop, its due time after the schedule start.
type Draw struct {
	Due    time.Duration
	Tenant string
	Kind   int
}

// Spec returns the job spec the draw submits.
func (d Draw) Spec(mix []JobKind) server.JobSpec {
	spec := mix[d.Kind].Spec
	spec.Tenant = d.Tenant
	return spec
}

// Schedule draws n jobs from the seed: Zipf tenants, kinds by the mix
// percentages and, when rate > 0, Poisson arrivals at rate jobs/s. Each
// property has its own stream, so the same seed yields the same tenants
// and kinds whatever the rate.
func Schedule(seed int64, n int, rate float64, mix []JobKind) []Draw {
	arrive := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rand.New(rand.NewSource(seed+1)), serveZipfS, 1, serveTenants-1)
	kinds := rand.New(rand.NewSource(seed + 2))
	out := make([]Draw, n)
	var at float64
	for i := range out {
		if rate > 0 {
			at += arrive.ExpFloat64() / rate
		}
		out[i].Due = time.Duration(at * float64(time.Second))
		out[i].Tenant = fmt.Sprintf("tenant-%d", zipf.Uint64())
		r := kinds.Intn(100)
		for k, kind := range mix {
			if r < kind.Percent {
				out[i].Kind = k
				break
			}
			r -= kind.Percent
		}
	}
	return out
}

// JobRecord is one submitted job as the client and the coordinator saw
// it.
type JobRecord struct {
	Draw
	// Due and Sent are absolute: when the job should have been sent and
	// when its POST began (closed-loop jobs are due when sent).
	DueAt, SentAt time.Time
	// Submit is the POST round trip.
	Submit time.Duration
	// Status is the POST's HTTP status (0 when the request failed).
	Status int
	// Job is the coordinator's final snapshot of an admitted job.
	Job server.Job
}

// OK reports whether the job was admitted and completed.
func (r *JobRecord) OK() bool { return r.Status == http.StatusAccepted && r.Job.State == server.Done }

// ServeRun holds the raw samples of one serving workload run.
type ServeRun struct {
	// Setup is one sample per server start: server.New until its first
	// job, submitted over HTTP, has finished.
	Setup []time.Duration
	// Open and Closed are the open- and closed-loop jobs in draw order.
	Open, Closed []JobRecord
	// Gets are the closed-loop status polls' round trips.
	Gets []time.Duration
	// ClosedWall is the closed-loop phase length.
	ClosedWall time.Duration
	// Retained is the coordinator's job count at the end.
	Retained  int
	HeapBytes uint64
	Attempted int64
	Failed    int64
	// Host is the workload's gauge, timed on one goroutine while the
	// server is idle: before each server start and after each load part.
	Host *HostGauge
}

// Latencies returns the open-loop latencies in seconds, from each job's
// due time to the coordinator's Finished timestamp; a refused or failed
// job counts as +Inf.
func (r *ServeRun) Latencies() []float64 {
	out := make([]float64, len(r.Open))
	for i := range r.Open {
		rec := &r.Open[i]
		if !rec.OK() {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = rec.Job.Finished.Sub(rec.DueAt).Seconds()
	}
	return out
}

// client is the load side's HTTP client: one transport capping the
// connections to the server.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// submit POSTs one job and returns the HTTP status and, on admission,
// the job id. A transport or decoding error returns status 0.
func (c *client) submit(spec server.JobSpec) (int, string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, "", err
	}
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var ack struct {
		ID string `json:"id"`
	}
	if resp.StatusCode != http.StatusAccepted {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		return resp.StatusCode, "", nil
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return 0, "", fmt.Errorf("decode submit response: %w", err)
	}
	return resp.StatusCode, ack.ID, nil
}

// state GETs one job's lifecycle state.
func (c *client) state(id string) (server.JobState, error) {
	resp, err := c.hc.Get(c.base + "/jobs/" + id)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var doc struct {
		State server.JobState `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return "", fmt.Errorf("decode job %s: %w", id, err)
	}
	return doc.State, nil
}

// await polls the coordinator in-process until job id has finished and
// returns its final snapshot.
func await(coord *server.Coordinator, id string) (server.Job, error) {
	for {
		j, err := coord.Job(id)
		if err != nil {
			return j, err
		}
		if j.State == server.Done || j.State == server.Failed {
			return j, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// startServer starts a server behind a loopback HTTP listener, submits
// first, and returns once the job has finished, with the time from the
// start to the job's Finished timestamp.
func startServer(first server.JobSpec) (*server.Server, *httptest.Server, *client, server.Job, time.Duration, error) {
	t0 := time.Now()
	srv := server.New(server.Config{Executors: serveExecutors})
	hs := httptest.NewServer(srv.Handler())
	c := newClient(hs.URL, serveConns)
	var j server.Job
	status, id, err := c.submit(first)
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("first submission answered %d", status)
	}
	if err == nil {
		j, err = await(srv.Coordinator(), id)
	}
	if err != nil {
		c.close()
		hs.Close()
		srv.Close()
		return nil, nil, nil, j, 0, err
	}
	return srv, hs, c, j, j.Finished.Sub(t0), nil
}

// serveParts is how many parts each load phase is cut into. After each
// part the server drains, and the gauge is timed gaugeSamples times while
// it is idle; the samples follow the host through the run.
const (
	serveParts   = 20
	gaugeSamples = 20
)

// RunServe runs the serving workload: SetupReps server starts (the last
// server is kept), an open loop of seeded Poisson arrivals at ServeRate,
// then a closed loop of serveCallers callers. Each loop runs in serveParts
// parts with the gauge timed between them. Every completed job must report
// interior × steps updates.
func RunServe(w Workload, seed int64, seconds int, rep *Report) (*ServeRun, error) {
	p := w.Serve
	mix := JobMix()
	run := &ServeRun{Host: newHostGauge(w.Gauge, 1, w.Nominal)}
	open := Schedule(seed, Scale(int(ServeRate*p.OpenSeconds), seconds), ServeRate, mix)
	closed := Schedule(seed+100, Scale(p.ClosedJobs, seconds), 0, mix)

	var (
		srv *server.Server
		hs  *httptest.Server
		c   *client
	)
	stop := func() {
		if srv != nil {
			c.close()
			hs.Close()
			srv.Close()
		}
	}
	defer func() { stop() }()
	for r := 0; r < w.SetupReps; r++ {
		stop()
		run.Host.SampleSetup()
		var j server.Job
		var d time.Duration
		var err error
		// Every start serves the mix's first kind, whatever the seed drew.
		if srv, hs, c, j, d, err = startServer(mix[0].Spec); err != nil {
			return nil, err
		}
		run.Attempted++
		if j.State != server.Done {
			run.Failed++
			continue
		}
		checkUpdates(rep, mix, Draw{}, j)
		run.Setup = append(run.Setup, d)
	}
	coord := srv.Coordinator()
	// drain waits for the admitted jobs of recs and times the gauge while
	// the server is idle.
	drain := func(recs []JobRecord) error {
		for i := range recs {
			if err := finish(coord, &recs[i]); err != nil {
				return err
			}
		}
		for i := 0; i < gaugeSamples; i++ {
			run.Host.Sample()
		}
		return nil
	}

	// Open loop: the senders take jobs in draw order and send each at its
	// due time; a sender still busy with an earlier job sends late, and the
	// lateness is recorded rather than hidden. Each part's schedule starts
	// when the part does.
	run.Open = make([]JobRecord, len(open))
	var wg sync.WaitGroup
	for _, part := range parts(len(open)) {
		var next atomic.Int64
		next.Store(int64(part[0]))
		start := time.Now().Add(-open[part[0]].Due)
		for s := 0; s < serveSenders; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= part[1] {
						return
					}
					rec := &run.Open[i]
					rec.Draw = open[i]
					rec.DueAt = start.Add(open[i].Due)
					time.Sleep(time.Until(rec.DueAt))
					rec.SentAt = time.Now()
					var id string
					rec.Status, id, _ = c.submit(open[i].Spec(mix))
					rec.Submit = time.Since(rec.SentAt)
					rec.Job.ID = id
				}
			}()
		}
		wg.Wait()
		if err := drain(run.Open[part[0]:part[1]]); err != nil {
			return nil, err
		}
	}

	// Closed loop: each caller submits its next job only after polling the
	// previous one to a terminal state.
	run.Closed = make([]JobRecord, len(closed))
	gets := make([][]time.Duration, serveCallers)
	for _, part := range parts(len(closed)) {
		var next atomic.Int64
		next.Store(int64(part[0]))
		start := time.Now()
		for k := 0; k < serveCallers; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= part[1] {
						return
					}
					rec := &run.Closed[i]
					rec.Draw = closed[i]
					rec.SentAt = time.Now()
					rec.DueAt = rec.SentAt
					var id string
					rec.Status, id, _ = c.submit(closed[i].Spec(mix))
					rec.Submit = time.Since(rec.SentAt)
					rec.Job.ID = id
					if rec.Status != http.StatusAccepted {
						continue
					}
					for {
						t0 := time.Now()
						st, err := c.state(id)
						gets[k] = append(gets[k], time.Since(t0))
						if err != nil || st == server.Done || st == server.Failed {
							break
						}
						time.Sleep(servePoll)
					}
				}
			}(k)
		}
		wg.Wait()
		run.ClosedWall += time.Since(start)
		if err := drain(run.Closed[part[0]:part[1]]); err != nil {
			return nil, err
		}
	}
	for _, g := range gets {
		run.Gets = append(run.Gets, g...)
	}

	for _, recs := range [][]JobRecord{run.Open, run.Closed} {
		for i := range recs {
			run.Attempted++
			if !recs[i].OK() {
				run.Failed++
				continue
			}
			checkUpdates(rep, mix, recs[i].Draw, recs[i].Job)
		}
	}
	run.Retained = len(coord.Jobs())
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	run.HeapBytes = ms.HeapAlloc
	runtime.KeepAlive(srv)
	return run, nil
}

// parts cuts n jobs into at most serveParts consecutive [lo, hi) ranges.
func parts(n int) [][2]int {
	k := min(serveParts, n)
	out := make([][2]int, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, [2]int{i * n / k, (i + 1) * n / k})
	}
	return out
}

// finish waits for an admitted job and stores its final snapshot.
func finish(coord *server.Coordinator, rec *JobRecord) error {
	if rec.Status != http.StatusAccepted {
		return nil
	}
	j, err := await(coord, rec.Job.ID)
	if err != nil {
		return fmt.Errorf("job %s: %w", rec.Job.ID, err)
	}
	rec.Job = j
	return nil
}

// checkUpdates verifies a finished job's update count.
func checkUpdates(rep *Report, mix []JobKind, d Draw, j server.Job) {
	if j.State != server.Done || j.Output == nil {
		return
	}
	spec := mix[d.Kind].Spec
	want := Interior(spec.Problem.Dims, spec.Problem.Order) * int64(spec.Run.Timesteps)
	if got := j.Output.Report.Updates; got != want {
		rep.Failf("job %s (%s) reported %d updates, want %d", j.ID, mix[d.Kind].Name, got, want)
	}
}

// ServedRates returns each job kind's per-job rates in Gupdates/s, keyed
// by kind name, counted as updates over the job's run time on its
// executor: solver build, initial fill, cold plan and Execute.
func (r *ServeRun) ServedRates(mix []JobKind) map[string][]float64 {
	out := map[string][]float64{}
	for _, recs := range [][]JobRecord{r.Open, r.Closed} {
		for i := range recs {
			rec := &recs[i]
			if !rec.OK() {
				continue
			}
			name := mix[rec.Kind].Name
			d := rec.Job.Finished.Sub(rec.Job.Started).Seconds()
			out[name] = append(out[name], float64(rec.Job.Output.Report.Updates)/d/1e9)
		}
	}
	return out
}

// SchemeKind returns the single-process kind of the mix that runs scheme:
// the kind whose served rate stands for the scheme.
func SchemeKind(mix []JobKind, scheme nustencil.SchemeName) (JobKind, error) {
	for _, k := range mix {
		if p := k.Spec.Problem; p.Scheme == scheme && p.Ranks <= 1 {
			return k, nil
		}
	}
	return JobKind{}, fmt.Errorf("the job mix has no single-process %s kind", scheme)
}
