package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"
)

// setupRuns is how many times a run sets up; setup_s is their median.
// Only the last set-up's server takes the timed traffic.
const setupRuns = 5

// windowSlices is how many equal time slices the timed window is cut
// into; qps and cpu_us_per_query are medians over them.
const windowSlices = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's one-line result.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tailQuantile is the client-latency percentile reported as tail_ms. A
// p99 is sampled well enough on every workload but batch-source, yet over
// ten seeds it spread up to 0.2 of its median (it follows the few hardest
// pairs a seed draws), where the p90 spread 0.04-0.17.
const tailQuantile = 0.90

// setupOnce launches one server and runs the workload's warm-up. It
// returns the engine times of the answers the warm-up computed.
func setupOnce(ctx context.Context, e *env, w *workload, ch *checks) (*server, []float64, error) {
	args, err := w.serverArgs(ctx, e)
	if err != nil {
		return nil, nil, err
	}
	srv, err := startServer(ctx, e.bin, e.dir+"/server.log", args...)
	if err != nil {
		return nil, nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	st := &clientState{nodes: w.g.n}
	var computed []float64
	for _, o := range w.warm {
		status, body, err := post(c, srv.base+o.path(), o.body)
		probe := *o
		probe.want, probe.mustMiss, probe.keep = nil, false, true
		r := st.evaluate(&probe, status, body, err)
		ch.expect(r.failed == 0, "set-up request: %s", r.problem)
		computed = append(computed, r.computedMs...)
		if o.kind == opQuery && r.failed == 0 && w.cycle {
			// The hot set: each set-up must compute the same value, and
			// the last one's answers are what timed hits must return.
			if o.want != nil {
				ch.expect(sameAnswer(*o.want, r.answers[0]), "set-up answer for %+v differs between set-ups", o.q)
			}
			a := r.answers[0]
			o.want = &a
		}
	}
	return srv, computed, nil
}

// runWorkload sets up, drives the timed window, checks, and measures.
func runWorkload(ctx context.Context, e *env, name string) (report, error) {
	rep := report{Metrics: map[string]metric{}}
	w, err := newWorkload(name, e)
	if err != nil {
		return rep, err
	}
	var ch checks
	var setups, warmComputed, mutMs []float64
	var srv *server
	for range setupRuns {
		if srv != nil {
			srv.stop()
		}
		start := time.Now()
		srv, warmComputed, err = setupOnce(ctx, e, w, &ch)
		if err != nil {
			return rep, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer srv.stop()
	pid := srv.cmd.Process.Pid
	c := newClient()
	defer c.CloseIdleConnections()

	before, err := srv.stats(c)
	if err != nil {
		return rep, err
	}
	self0, err := procCPU(os.Getpid())
	if err != nil {
		return rep, err
	}
	states := [2]*clientState{{nodes: w.g.n}, {nodes: w.g.n}}
	win := drive(ctx, srv.base, w.lists, w.cycle, e.dur, states, e.tr, pid, windowSlices)
	if win.cpuErr != nil {
		return rep, win.cpuErr
	}
	if len(win.cpu) != windowSlices+1 {
		return rep, fmt.Errorf("timed window interrupted: %v", ctx.Err())
	}
	self1, err := procCPU(os.Getpid())
	if err != nil {
		return rep, err
	}
	after, err := srv.stats(c)
	if err != nil {
		return rep, err
	}
	rssMB, err := procHWM(pid)
	if err != nil {
		return rep, err
	}
	ch.expect(!win.exhausted, "a client ran out of pre-generated requests; raise its list size")
	ch.expect(after.Admission.Queued == before.Admission.Queued && after.Admission.Shed == before.Admission.Shed &&
		after.Admission.TimedOut == before.Admission.TimedOut && after.Admission.Degraded == before.Admission.Degraded,
		"admission queued, shed, timed out or degraded requests: the workload overloads the server")

	all := append(append([]result(nil), win.results[0]...), win.results[1]...)
	sort.Slice(all, func(i, j int) bool { return all[i].end < all[j].end })
	var lat, computed []float64
	answered, attempted, failed, bytes, requests := 0, 0, 0, 0, 0
	sliceAnswered := make([]int, windowSlices)
	var problems []string
	for _, r := range all {
		attempted += r.attempted
		failed += r.failed
		if r.problem != "" && len(problems) < 20 {
			problems = append(problems, r.problem)
		}
		ms := float64(r.end-r.start) / 1e6
		if r.op.kind == opMutate {
			mutMs = append(mutMs, ms)
			continue
		}
		answered += r.answered
		if i := int(r.end / win.slice); i < windowSlices {
			sliceAnswered[i] += r.answered
		}
		computed = append(computed, r.computedMs...)
		lat = append(lat, ms)
		bytes += r.bytes
		requests++
	}
	// Per-slice answer rate and server CPU per answer; the medians over
	// slices are the reported qps and cpu_us_per_query.
	var sliceQPS, sliceCPU []float64
	for i, n := range sliceAnswered {
		sliceQPS = append(sliceQPS, float64(n)/win.slice.Seconds())
		if n > 0 {
			sliceCPU = append(sliceCPU, float64(win.cpu[i+1]-win.cpu[i])/1e3/float64(n))
		}
	}

	if w.live != nil {
		if err := w.live(ctx, e, srv, &win, &ch); err != nil {
			return rep, err
		}
	}
	srv.stop()
	if w.offline != nil {
		w.offline(e, &win, &ch)
	}

	rep.Attempted = attempted + ch.attempted
	rep.Failed = failed + ch.failed
	rep.Correct = answered > 0 && !win.exhausted && rep.Failed == 0
	problems = append(problems, ch.problems...)
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "relbench: %s: FAILED CHECK: %s\n", name, p)
	}

	if !tailOK(len(lat), tailQuantile) {
		fmt.Fprintf(os.Stderr, "relbench: %s: only %d requests, fewer than ten beyond p%.0f\n", name, len(lat), tailQuantile*100)
	}
	fmt.Fprintf(os.Stderr, "relbench: %s seed %d: %d requests (%d queries) in %.2fs, qps %.1f, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, %d mutation acks, set-ups %.3v s\n",
		name, e.seed, requests, answered, win.elapsed.Seconds(), median(sliceQPS), median(lat), quantile(lat, 0.9), quantile(lat, 0.99), len(mutMs), setups)

	if e.tr == nil {
		rep.Metrics["setup_s"] = metric{median(setups), "s"}
		rep.Metrics["qps"] = metric{median(sliceQPS), "1/s"}
		rep.Metrics["p50_ms"] = metric{median(lat), "ms"}
		rep.Metrics["tail_ms"] = metric{quantile(lat, tailQuantile), "ms"}
		rep.Metrics["cpu_us_per_query"] = metric{median(sliceCPU), "us"}
		rep.Metrics["rss_mb"] = metric{rssMB, "MB"}
		return rep, nil
	}

	// Traced run: per-layer metrics.
	set := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }
	perBatch := func(x, batches uint64) float64 {
		if batches == 0 {
			return 0
		}
		return float64(x) / float64(batches)
	}
	set("relserver.overhead_us", e.tr.overheadUs(), "us")
	set("relserver.resp_bytes", float64(bytes)/float64(requests), "B")
	if len(computed) == 0 {
		computed = warmComputed // every timed answer was a hit
	}
	set("engine.us_per_query", median(computed)*1e3, "us")
	lookups := (after.CacheHits - before.CacheHits) + (after.CacheMisses - before.CacheMisses)
	set("engine.cache_hit_ratio", perBatch(after.CacheHits-before.CacheHits, lookups), "ratio")
	set("engine.cache_evictions", float64(after.CacheEvictions-before.CacheEvictions), "count")
	set("engine.deduped_queries", float64(after.DedupedQueries-before.DedupedQueries), "count")
	set("engine.anytime_samples_per_query", perBatch(after.AnytimeSamplesDrawn-before.AnytimeSamplesDrawn,
		after.AnytimeQueries-before.AnytimeQueries), "count")
	set("engine.admission_queued", float64(after.Admission.Queued-before.Admission.Queued), "count")
	set("client.cpu_us_per_query", float64(self1-self0)/1e3/float64(answered), "us")
	layers, err := layerPass(ctx, e, w)
	if err != nil {
		return rep, err
	}
	for k, v := range layers {
		set(k, v, unitOf(k))
	}
	// The mutation counters come from the in-process pass's Apply calls,
	// except where the timed traffic itself commits (mutate-read): there
	// they are the server's, over the window, and relserver.mutate_p50_ms
	// is the median acknowledgment. Traffic without commits has no
	// acknowledgment to time and reports 0.
	set("relserver.mutate_p50_ms", 0, "ms")
	if len(mutMs) > 0 {
		mb, ma := before.Mutations, after.Mutations
		set("relserver.mutate_p50_ms", median(mutMs), "ms")
		set("engine.repairs_per_batch", perBatch(ma.IndexRepairs-mb.IndexRepairs, ma.Batches-mb.Batches), "count")
		set("engine.rebuilds", float64(ma.IndexRebuilds-mb.IndexRebuilds), "count")
		set("engine.invalidated_per_batch", perBatch(ma.InvalidatedSources-mb.InvalidatedSources, ma.Batches-mb.Batches), "count")
	}
	return rep, nil
}

// unitOf reads a per-layer metric's unit from its name suffix.
func unitOf(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_ms", "ms"}, {"_us", "us"}, {".us", "us"}, {"_ns", "ns"}, {"us_per_target", "us"}, {"us_per_query", "us"},
	} {
		if len(name) >= len(u.suffix) && name[len(name)-len(u.suffix):] == u.suffix {
			return u.unit
		}
	}
	return "count"
}
