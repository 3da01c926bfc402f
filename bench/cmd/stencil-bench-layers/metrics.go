package main

import (
	"fmt"
	"time"

	"nustencil"
	"nustencil/bench"
	"nustencil/internal/histo"
)

// notRun marks a layer metric of a layer the workload does not exercise;
// it is reported as 0.
const notRun = "not exercised by this workload"

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func medianDur(ds []time.Duration) time.Duration {
	return seconds(bench.Median(bench.Durations(ds)))
}

func tailDur(ds []time.Duration) time.Duration {
	return seconds(bench.Percentile(bench.Durations(ds), float64(bench.TailPercentile(len(ds), 99))))
}

// add reports a metric measured from n samples, or 0 when n is 0.
func add(rep *bench.Report, name string, n int, v func() float64, unit, note string) {
	if n == 0 {
		rep.Add(name, 0, unit, notRun)
		return
	}
	rep.Add(name, v(), unit, note)
}

// kernelUse is one scheme's kernel work in a run, over both paths.
type kernelUse struct {
	updates int64
	// wall is kernel time divided by the worker count: the run time the
	// kernel alone would take.
	wall         time.Duration
	bytes, flops float64 // summed per update
}

func (k *kernelUse) gups() float64 { return float64(k.updates) / k.wall.Seconds() / 1e9 }

func addMetrics(rep *bench.Report, lr *layerRun) {
	h := lr.host
	streamGBs := (h.stream0 + h.stream1) / 2
	rep.Add("host.stream_gbs", streamGBs, "GB/s", "STREAM copy, one worker per CPU, 64 MB arrays, mean of start and end")
	rep.Add("host.stream_change", h.stream1/h.stream0-1, "ratio", fmt.Sprintf("end %.3g over start %.3g GB/s", h.stream1, h.stream0))
	rep.Add("host.peak_gflops", h.peak, "GFLOP/s", "one worker's register-resident FMA loop times the CPU count")
	rep.Add("verify.gupdates_per_s", h.verify, "Gupdates/s", "serial verify.Solve: the single-thread baseline")

	kernels := map[nustencil.SchemeName]*kernelUse{}
	use := func(s nustencil.SchemeName, updates int64, busy time.Duration, workers int, bytes float64, flops int) {
		k := kernels[s]
		if k == nil {
			k = &kernelUse{}
			kernels[s] = k
		}
		k.updates += updates
		k.wall += busy / time.Duration(workers)
		k.bytes += bytes * float64(updates)
		k.flops += float64(flops) * float64(updates)
	}
	var total kernelUse
	var busy time.Duration
	for _, p := range lr.solves {
		use(p.scheme, p.updates, p.busy, p.workers, p.bytesPerUpdate, p.flopsPerUpdate)
		busy += p.busy
	}
	for _, p := range lr.dists {
		use(p.scheme, p.updates, p.busy, p.workers, p.bytesPerUpdate, p.flopsPerUpdate)
		busy += p.busy
	}
	for _, k := range kernels {
		total.updates += k.updates
		total.wall += k.wall
		total.bytes += k.bytes
		total.flops += k.flops
	}
	rep.Add("stencil.busy_s", busy.Seconds(), "s", "kernel time over all workers, warm runs")
	add(rep, "stencil.bytes_per_update", int(total.updates), func() float64 { return total.bytes / float64(total.updates) },
		"B", "computed, not measured: one write plus the reads under ideal caching")
	add(rep, "stencil.frac_of_peak", int(total.updates), func() float64 { return total.flops / total.wall.Seconds() / 1e9 / h.peak },
		"ratio", "kernel GFLOP/s over host.peak_gflops")
	for _, sc := range bench.Schemes {
		k := kernels[sc]
		n := 0
		if k != nil {
			n = int(k.updates)
		}
		add(rep, "stencil.gupdates_per_busy_s."+string(sc), n, k.gups, "Gupdates/s", "updates over kernel time per worker")
		add(rep, "stencil.frac_of_stream."+string(sc), n, func() float64 {
			return k.gups() * k.bytes / float64(k.updates) / streamGBs
		}, "ratio", "computed bytes at the kernel rate over host.stream_gbs")
	}

	addSolveLayers(rep, lr.solves)
	addDistLayers(rep, lr.dists)
	addServeLayers(rep, lr)

	// Tracing overhead: the recomposed, instrumented runs against the
	// untraced Execute calls doing the same work.
	var traced, plain time.Duration
	for _, p := range lr.solves {
		traced += medianDur(p.runs)
		plain += medianDur(p.exec)
	}
	for _, p := range lr.dists {
		traced += medianDur(p.news) + medianDur(p.runs)
		plain += medianDur(p.exec)
	}
	rep.Add("trace.overhead_frac", float64(traced)/float64(plain)-1, "ratio",
		"median instrumented recomposed run over median untraced Execute, minus 1")
}

func addSolveLayers(rep *bench.Report, solves []*solveProbe) {
	n := len(solves)
	var build, deps, noop time.Duration
	var edges, tiles, stepBoxes, runTiles int
	var busy, capacity time.Duration
	var parks int64
	var imbalance []float64
	for _, p := range solves {
		build += p.build
		deps += p.deps
		edges += p.edges
		tiles += p.tiles
		stepBoxes += p.stepBoxes
		if len(p.noop) > 0 {
			noop += medianDur(p.noop) / time.Duration(p.tiles)
		}
		for _, r := range p.runs {
			capacity += r * time.Duration(p.workers)
		}
		busy += p.busy
		parks += p.parks
		runTiles += p.tiles * len(p.runs)
		imbalance = append(imbalance, p.imbalance...)
	}
	plans := time.Duration(max(n, 1))
	add(rep, "tiling.build_ms", n, func() float64 { return ms(build / plans) }, "ms", "Distribute+Tiles+AssignIDs+TraverseOrDefault, mean per plan")
	add(rep, "tiling.stepboxes_per_tile", n, func() float64 { return float64(stepBoxes) / float64(tiles) }, "count", "")
	add(rep, "engine.deps_ms", n, func() float64 { return ms(deps / plans) }, "ms", "BuildDeps, mean per plan")
	add(rep, "engine.dep_edges", n, func() float64 { return float64(edges) / float64(n) }, "count", "mean per plan")
	add(rep, "engine.noop_ns_per_tile", n, func() float64 { return float64(noop / plans) }, "ns",
		fmt.Sprintf("engine.Run with an empty Exec on one worker, median of %d runs", noopRuns))
	add(rep, "engine.busy_frac", n, func() float64 { return float64(busy) / float64(capacity) }, "ratio", "kernel time over workers × run wall time")
	add(rep, "engine.parks_per_tile", n, func() float64 { return float64(parks) / float64(runTiles) }, "count", "")
	add(rep, "engine.imbalance", n, func() float64 { return bench.Median(imbalance) }, "ratio", "max over mean worker busy time, median run")

	for _, sc := range bench.Schemes {
		var p *solveProbe
		for _, q := range solves {
			if q.scheme == sc {
				p = q
			}
		}
		m := 0
		if p != nil {
			m = len(p.runs)
		}
		s := "." + string(sc)
		add(rep, "tiling.tiles"+s, m, func() float64 { return float64(p.tiles) }, "count", "")
		add(rep, "tiling.mean_box_cells"+s, m, func() float64 { return float64(p.boxCells) / float64(p.stepBoxes) }, "cells", "cells per ApplyBox call")
		add(rep, "engine.overhead_us_per_run"+s, m, func() float64 { return us(medianDur(p.overhead)) }, "us", "run wall minus busiest worker's kernel time, median")
		add(rep, "nustencil.execute_overhead_us"+s, m, func() float64 { return us(medianDur(p.exec) - medianDur(p.runs)) }, "us", "median Execute minus median engine.Run")
		add(rep, "nustencil.cold_plan_ms"+s, m, func() float64 { return ms(p.cold - medianDur(p.exec)) }, "ms", "first Execute minus median warm Execute")
	}
}

func addDistLayers(rep *bench.Report, dists []*distProbe) {
	var news, sends, tails []time.Duration
	var steps, msgs, halo, model int64
	var lat, barrier histo.Hist
	var busy, capacity time.Duration
	for _, p := range dists {
		news = append(news, p.news...)
		sends = append(sends, p.sends...)
		tails = append(tails, p.tails...)
		steps += p.steps
		msgs += p.msgs
		halo += p.haloBytes
		model += p.modelBytes
		lat.Merge(&p.haloLat)
		barrier.Merge(&p.barrier)
		busy += p.busy
		for _, r := range p.runs {
			capacity += r * time.Duration(p.workers)
		}
	}
	n := len(news)
	add(rep, "dist.new_ms", n, func() float64 { return ms(medianDur(news)) }, "ms", "dist.New (scatter), median")
	add(rep, "dist.msgs_per_step", n, func() float64 { return float64(msgs) / float64(steps) }, "count", "")
	add(rep, "dist.halo_bytes_per_step", n, func() float64 { return float64(halo) / float64(steps) }, "B", "")
	add(rep, "dist.halo_bytes_vs_model", n, func() float64 { return float64(halo) / float64(model) }, "ratio",
		"over 8·NetHaloWordsPerStep per exchanging step")
	add(rep, "dist.send_us_p50", len(sends), func() float64 { return us(medianDur(sends)) }, "us", fmt.Sprintf("Transport.Send, n=%d", len(sends)))
	add(rep, "dist.halo_latency_us_p50", n, func() float64 { return us(lat.Quantile(0.5)) }, "us", "log2 histogram bucket bound")
	add(rep, "dist.halo_latency_us_p99", n, func() float64 { return us(lat.Quantile(0.99)) }, "us", fmt.Sprintf("log2 histogram bucket bound, n=%d", lat.N))
	add(rep, "dist.barrier_wait_us_p50", n, func() float64 { return us(barrier.Quantile(0.5)) }, "us", "log2 histogram bucket bound")
	add(rep, "dist.busy_frac", n, func() float64 { return float64(busy) / float64(capacity) }, "ratio", "OnExec time over workers × Run wall time")
	add(rep, "dist.tail_ms", n, func() float64 { return ms(medianDur(tails)) }, "ms", "last OnExec to Run return, median")
}

func addServeLayers(rep *bench.Report, lr *layerRun) {
	run := lr.serve
	var submit, wait, exec, late []time.Duration
	var gets []time.Duration
	retained := 0
	if run != nil {
		gets = run.Gets
		retained = run.Retained
		for _, recs := range [][]bench.JobRecord{run.Open, run.Closed} {
			for i := range recs {
				rec := &recs[i]
				submit = append(submit, rec.Submit)
				if rec.OK() {
					wait = append(wait, rec.Job.Started.Sub(rec.Job.Submitted))
					exec = append(exec, rec.Job.Finished.Sub(rec.Job.Started))
				}
			}
		}
		for i := range run.Open {
			late = append(late, run.Open[i].SentAt.Sub(run.Open[i].DueAt))
		}
	}
	add(rep, "server.submit_ms_p50", len(submit), func() float64 { return ms(medianDur(submit)) }, "ms", fmt.Sprintf("POST /jobs round trip, n=%d", len(submit)))
	add(rep, "server.queue_wait_ms_p50", len(wait), func() float64 { return ms(medianDur(wait)) }, "ms", fmt.Sprintf("Submitted to Started, n=%d", len(wait)))
	add(rep, "server.queue_wait_ms_tail", len(wait), func() float64 { return ms(tailDur(wait)) }, "ms", bench.TailNote(len(wait), 99))
	add(rep, "server.run_ms_p50", len(exec), func() float64 { return ms(medianDur(exec)) }, "ms", "Started to Finished")
	add(rep, "server.runlocal_ms_p50", len(lr.runLocal), func() float64 { return ms(medianDur(lr.runLocal)) }, "ms",
		fmt.Sprintf("RunLocal outside the server on the first %d open-loop specs", len(lr.runLocal)))
	add(rep, "server.get_ms_p50", len(gets), func() float64 { return ms(medianDur(gets)) }, "ms", fmt.Sprintf("GET /jobs/{id} round trip, n=%d", len(gets)))
	add(rep, "server.retained_jobs", len(submit), func() float64 { return float64(retained) }, "count", "coordinator job table at the end")
	add(rep, "gen.late_ms_tail", len(late), func() float64 { return ms(tailDur(late)) }, "ms", "open-loop send time minus due time, "+bench.TailNote(len(late), 99))
}
