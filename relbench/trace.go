package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"time"

	"relcomp"
	"relcomp/internal/core"
)

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	next   int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) offset(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// request records one client HTTP call and, as its child, the engine time
// the response reports, placed at the end of the call. The parent's self
// time is then the serving overhead outside the engine: network, HTTP,
// JSON decode and encode.
func (t *tracer) request(start, end int64, engineMs float64) {
	eng := min(int64(engineMs*1e6), end-start)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.next + 1
	t.next += 2
	t.spans = append(t.spans,
		span{ID: id, Req: id, Name: "relserver.request", Start: start, End: end},
		span{ID: id + 1, Parent: id, Req: id, Name: "engine", Start: end - eng, End: end})
}

// time runs fn inside a span named after the called function.
func (t *tracer) time(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s := t.offset(start)
	t.spans = append(t.spans, span{ID: t.next, Req: t.next, Name: name, Start: s, End: s + int64(d)})
	return d
}

// overheadUs is the median self time of the client's request spans.
func (t *tracer) overheadUs() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	var xs []float64
	for _, s := range t.spans {
		if s.Name == "relserver.request" {
			xs = append(xs, float64(self[s.ID])/1e3)
		}
	}
	return median(xs)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerInputs are the workload's own inputs the in-process pass reuses.
type layerInputs struct {
	pairs []query // queries of the workload; the plain s-t ones drive the direct calls
	batch []query // a batch of the workload (batch-source only)
}

// layerMutations is how many mutation batches the in-process pass applies
// and appends to a sidecar; repairReads is how many BFSSharing reads it
// then compares between a snapshot-served engine and a fresh one.
const (
	layerMutations = 40
	repairReads    = 32
)

// layerPass calls each layer's exported functions in process, on the
// workload's graph file and inputs, inside spans, and returns the
// per-layer times.
func layerPass(ctx context.Context, e *env, w *workload) (map[string]float64, error) {
	tr := e.tr
	out := map[string]float64{}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }

	// internal/uncertain: parse the graph file the server parses.
	var g *relcomp.Graph
	var err error
	var xs []float64
	for i := 0; i < 3; i++ {
		xs = append(xs, ms(tr.time("relcomp.ReadGraphFile", func() { g, err = relcomp.ReadGraphFile(w.gpath) })))
		if err != nil {
			return nil, err
		}
	}
	out["uncertain.read_graph_ms"] = median(xs)

	// internal/core: offline index builds, then direct estimator calls.
	var bfs, pt relcomp.Estimator
	xs = xs[:0]
	for i := 0; i < 2; i++ {
		xs = append(xs, ms(tr.time("relcomp.NewBFSSharing", func() { bfs = relcomp.NewBFSSharing(g, engineSeed, maxK) })))
	}
	out["core.bfs_index_build_ms"] = median(xs)
	xs = xs[:0]
	for i := 0; i < 2; i++ {
		xs = append(xs, ms(tr.time("relcomp.NewProbTree", func() { pt = relcomp.NewProbTree(g, engineSeed) })))
	}
	out["core.probtree_build_ms"] = median(xs)
	direct := map[string]relcomp.Estimator{
		"MC":         relcomp.NewMC(g, engineSeed),
		"PackMC":     relcomp.NewPackMC(g, engineSeed),
		"PackMC256":  relcomp.NewWidePackMC(g, engineSeed, 256),
		"PackMC512":  relcomp.NewWidePackMC(g, engineSeed, 512),
		"BFSSharing": bfs,
		"ProbTree":   pt,
		"LP+":        relcomp.NewLazyProp(g, engineSeed),
		"RHH":        relcomp.NewRHH(g, engineSeed),
		"RSS":        relcomp.NewRSS(g, engineSeed),
	}
	metric := map[string]string{
		"MC": "core.mc.us", "PackMC": "core.packmc.us", "PackMC256": "core.packmc256.us",
		"PackMC512": "core.packmc512.us", "BFSSharing": "core.bfssharing.us", "ProbTree": "core.probtree.us",
		"LP+": "core.lpplus.us", "RHH": "core.rhh.us", "RSS": "core.rss.us",
	}
	var st []query
	for _, q := range w.layer.pairs {
		if q.Kind == "" && len(st) < 8 {
			st = append(st, q)
		}
	}
	for _, name := range []string{"MC", "PackMC", "PackMC256", "PackMC512", "BFSSharing", "ProbTree", "LP+", "RHH", "RSS"} {
		est := direct[name]
		xs = xs[:0]
		var spent time.Duration
		for i, q := range st {
			if i >= 3 && spent > 400*time.Millisecond {
				break
			}
			d := tr.time("core."+name+".Estimate", func() { est.Estimate(relcomp.NodeID(q.S), relcomp.NodeID(q.T), maxK) })
			spent += d
			xs = append(xs, us(d))
		}
		out[metric[name]] = median(xs)
	}

	// Source groups for the amortized paths: 4 sources x 4 targets within
	// batchHops, drawn from the workload's graph and seed.
	ps := newPairSource(w.g, newRNG(e.seed, 9))
	type group struct {
		s  int32
		ts []int32
	}
	var groups []group
	for i := 0; i < 4; i++ {
		s, ts, err := ps.group(4, batchHops)
		if err != nil {
			return nil, err
		}
		groups = append(groups, group{s, ts})
	}
	type allEstimator interface {
		EstimateAll(s relcomp.NodeID, k int) []float64
	}
	ptq, ok := pt.(*core.ProbTree)
	if !ok {
		return nil, fmt.Errorf("relcomp.NewProbTree returned %T, want *core.ProbTree", pt)
	}
	allPaths := []struct {
		metric string
		run    func(group)
	}{
		{"core.bfssharing_all.us_per_target", func(gr group) { bfs.(allEstimator).EstimateAll(relcomp.NodeID(gr.s), maxK) }},
		{"core.packmc256_all.us_per_target", func(gr group) { direct["PackMC256"].(allEstimator).EstimateAll(relcomp.NodeID(gr.s), maxK) }},
		{"core.probtree_all.us_per_target", func(gr group) {
			ts := make([]relcomp.NodeID, len(gr.ts))
			for i, t := range gr.ts {
				ts[i] = relcomp.NodeID(t)
			}
			ptq.QueryGraphEach(relcomp.NodeID(gr.s), ts, func(_ int, sq core.SplicedQuery) { ptq.EstimateSpliced(sq, maxK) })
		}},
	}
	for _, p := range allPaths {
		xs = xs[:0]
		for _, gr := range groups {
			xs = append(xs, us(tr.time(p.metric, func() { p.run(gr) }))/float64(len(gr.ts)))
		}
		out[p.metric] = median(xs)
	}

	// internal/engine: a batch, the workload's requests through
	// Engine.Estimate and then from its cache, then mutation batches.
	cfg := relcomp.EngineConfig{Seed: engineSeed, MaxK: maxK, CacheSize: 16384}
	eng, err := relcomp.NewEngine(g, cfg)
	if err != nil {
		return nil, err
	}
	for name := range direct {
		if len(st) > 0 { // build lazy indexes and pools under a key (k-1) no timed request uses
			eng.Estimate(ctx, relcomp.Request{S: relcomp.NodeID(st[0].S), T: relcomp.NodeID(st[0].T), K: maxK - 1, Estimator: name})
		}
	}
	// A batch first, while none of its keys is cached.
	batch := make([]relcomp.Request, 0, 24)
	if len(w.layer.batch) > 0 {
		for _, q := range w.layer.batch {
			batch = append(batch, toRequest(q))
		}
	} else {
		for gi, gr := range groups {
			est := []string{"BFSSharing", "PackMC256", "ProbTree", "MC"}[gi]
			for _, t := range gr.ts {
				batch = append(batch, relcomp.Request{S: relcomp.NodeID(gr.s), T: relcomp.NodeID(t), K: maxK, Estimator: est})
			}
		}
	}
	d := tr.time("relcomp.Engine.EstimateBatch", func() { eng.EstimateBatch(ctx, batch) })
	out["engine.batch_us_per_query"] = us(d) / float64(len(batch))

	// Engine self time: Engine.Estimate minus a direct Estimate on one of
	// the engine's own replicas (BorrowEstimator), reseeded with the
	// engine's per-query seed, so both draw the same worlds and do the
	// same sampling; the median of the paired differences. Small budgets
	// (k in 56..63, each a new cache key) keep the timing noise of that
	// shared sampling small, and the side that runs first alternates, so
	// the caches the first call warms favour neither.
	var selfUs, hitNs []float64
	unpaired := 0
	for _, q := range st {
		for k := 56; k < 64; k++ {
			req := toRequest(q)
			req.K = k
			var resp relcomp.Response
			viaEngine := func() time.Duration {
				return tr.time("relcomp.Engine.Estimate", func() { resp = eng.Estimate(ctx, req) })
			}
			var borrowed float64
			viaDirect := func() (d time.Duration) {
				err := relcomp.BorrowEstimator(eng, q.Estimator, func(est relcomp.Estimator) error {
					if sd, ok := est.(interface{ Reseed(uint64) }); ok {
						sd.Reseed(engineQuerySeed(q.Estimator, q.S, q.T, k))
					}
					d = tr.time("core."+q.Estimator+".Estimate", func() {
						borrowed = est.Estimate(relcomp.NodeID(q.S), relcomp.NodeID(q.T), k)
					})
					return nil
				})
				if err != nil {
					unpaired++
				}
				return d
			}
			var de, dd time.Duration
			if k%2 == 0 {
				de, dd = viaEngine(), viaDirect()
			} else {
				dd, de = viaDirect(), viaEngine()
			}
			if resp.Reliability != borrowed {
				unpaired++
			}
			selfUs = append(selfUs, us(de-dd))
		}
		req := toRequest(q)
		eng.Estimate(ctx, req) // fills the cache for the hit timing below
	}
	for rep := 0; rep < 50; rep++ {
		for _, q := range st {
			req := toRequest(q)
			hitNs = append(hitNs, float64(tr.time("relcomp.Engine.Estimate(hit)", func() { eng.Estimate(ctx, req) })))
		}
	}
	if unpaired > 0 {
		fmt.Fprintf(os.Stderr, "relbench: engine.self_us: %d of %d direct calls did not reproduce the engine's answer, so their sampling differs\n",
			unpaired, len(selfUs))
	}
	out["engine.self_us"] = median(selfUs)
	out["engine.hit_ns"] = median(hitNs)

	// Mutation batches drawn from a fixed seed, so the pass applies the
	// same history on every run of the workload.
	probs := make([]float64, len(w.g.edges))
	for i, ed := range w.g.edges {
		probs[i] = ed.p
	}
	mr := newRNG(0, 5)
	muts := make([][]mutation, layerMutations)
	for i := range muts {
		muts[i] = updateBatch(w.g, mr, probs)
	}
	xs = xs[:0]
	m0 := eng.Stats().Mutations
	var applyErr error
	for _, batch := range muts {
		batch := toMutations(batch)
		xs = append(xs, us(tr.time("relcomp.Engine.Apply", func() { _, applyErr = eng.Apply(ctx, batch) })))
		if applyErr != nil {
			return nil, fmt.Errorf("in-process Apply: %w", applyErr)
		}
	}
	m1 := eng.Stats().Mutations
	out["engine.apply_us"] = median(xs)
	batches := float64(m1.Batches - m0.Batches)
	out["engine.repairs_per_batch"] = float64(m1.IndexRepairs-m0.IndexRepairs) / batches
	out["engine.rebuilds"] = float64(m1.IndexRebuilds - m0.IndexRebuilds)
	out["engine.invalidated_per_batch"] = float64(m1.InvalidatedSources-m0.InvalidatedSources) / batches

	// internal/snapshot: open and verify a snapshot of the graph.
	snapPath := filepath.Join(e.dir, "layer.snap")
	f, err := os.Create(snapPath)
	if err != nil {
		return nil, err
	}
	if err := relcomp.WriteEngineSnapshot(f, g, relcomp.EngineConfig{Seed: engineSeed, MaxK: maxK}); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	var opens, verifies []float64
	for i := 0; i < 3; i++ {
		var snap *relcomp.Snapshot
		opens = append(opens, ms(tr.time("relcomp.OpenSnapshot", func() { snap, err = relcomp.OpenSnapshot(snapPath) })))
		if err != nil {
			return nil, err
		}
		verifies = append(verifies, ms(tr.time("relcomp.Snapshot.Verify", func() { err = snap.Verify() })))
		snap.Close()
		if err != nil {
			return nil, err
		}
	}
	out["snapshot.open_ms"] = median(opens)
	out["snapshot.verify_ms"] = median(verifies)

	// Repair of a snapshot-served index: an engine over the snapshot
	// applies the same batches, and its BFSSharing answers must equal those
	// of a fresh engine on the benchmark's own copy of the mutated graph.
	if out["engine.snapshot_repair_mismatches"], err = snapshotRepairMismatches(ctx, e, w, snapPath, muts); err != nil {
		return nil, err
	}

	// internal/mutate: append each batch to a sidecar and fsync it.
	side, err := os.Create(filepath.Join(e.dir, "layer.mutlog"))
	if err != nil {
		return nil, err
	}
	defer side.Close()
	if err := relcomp.WriteMutationSidecarHeader(side); err != nil {
		return nil, err
	}
	xs = xs[:0]
	for j, batch := range muts {
		b := relcomp.MutationBatch{Epoch: uint64(j + 1), Muts: toMutations(batch)}
		xs = append(xs, us(tr.time("relcomp.AppendMutationSidecar", func() {
			if err = relcomp.AppendMutationSidecar(side, b); err == nil {
				err = side.Sync()
			}
		})))
		if err != nil {
			return nil, err
		}
	}
	out["mutate.sidecar_append_us"] = median(xs)
	return out, nil
}

// snapshotRepairMismatches counts, of repairReads fixed 2-hop BFSSharing
// reads, those on which an engine served from the snapshot at snapPath,
// after applying muts, answers otherwise than a fresh engine on the
// mutated graph. The engines' contract makes it 0.
func snapshotRepairMismatches(ctx context.Context, e *env, w *workload, snapPath string, muts [][]mutation) (float64, error) {
	cfg := relcomp.EngineConfig{Seed: engineSeed, MaxK: maxK}
	snap, err := relcomp.OpenSnapshot(snapPath)
	if err != nil {
		return 0, err
	}
	defer snap.Close()
	served, err := relcomp.NewEngineFromSnapshot(snap, cfg)
	if err != nil {
		return 0, err
	}
	ps := newPairSource(w.g, newRNG(0, 10))
	reads := make([]relcomp.Request, repairReads)
	for i := range reads {
		p, err := ps.pair(hopsST)
		if err != nil {
			return 0, err
		}
		reads[i] = relcomp.Request{S: relcomp.NodeID(p[0]), T: relcomp.NodeID(p[1]), K: maxK, Estimator: "BFSSharing"}
	}
	served.Estimate(ctx, reads[0]) // the index is in use before the first repair
	var applied []mutation
	for _, batch := range muts {
		if _, err := served.Apply(ctx, toMutations(batch)); err != nil {
			return 0, fmt.Errorf("in-process Apply on the snapshot engine: %w", err)
		}
		applied = append(applied, batch...)
	}
	mutated, err := w.g.withProbs(applied)
	if err != nil {
		return 0, err
	}
	path := filepath.Join(e.dir, "layer-mutated.txt")
	if err := mutated.writeText(path); err != nil {
		return 0, err
	}
	g, err := relcomp.ReadGraphFile(path)
	if err != nil {
		return 0, err
	}
	fresh, err := relcomp.NewEngine(g, cfg)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, q := range reads {
		q.K = maxK - 2 // a key the warm-up read did not fill
		a, b := served.Estimate(ctx, q), fresh.Estimate(ctx, q)
		if a.Err != nil || b.Err != nil {
			return 0, fmt.Errorf("BFSSharing read %d->%d: %v, %v", q.S, q.T, a.Err, b.Err)
		}
		if a.Reliability != b.Reliability {
			n++
		}
	}
	return float64(n), nil
}

// engineQuerySeed mirrors the engine's per-query stream seed
// (internal/engine querySeed): equal for equal (estimator, s, t, k), with
// the target ignored by the world-packed kernels.
func engineQuerySeed(name string, s, t int32, k int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	z := mix64(engineSeed ^ h.Sum64())
	if name == "PackMC" || name == "PackMC256" || name == "PackMC512" {
		t = s
	}
	z = mix64(z + 0x9e3779b97f4a7c15*uint64(s))
	z = mix64(z + 0xbf58476d1ce4e5b9*uint64(t))
	return mix64(z + 0x94d049bb133111eb*uint64(k))
}

func toRequest(q query) relcomp.Request {
	r := relcomp.Request{
		Kind: relcomp.QueryKind(q.Kind), S: relcomp.NodeID(q.S), T: relcomp.NodeID(q.T), K: q.K,
		D: q.D, TopK: q.TopK, Estimator: q.Estimator, Eps: q.Eps,
	}
	for _, t := range q.Targets {
		r.Targets = append(r.Targets, relcomp.NodeID(t))
	}
	return r
}

func toMutations(ms []mutation) []relcomp.Mutation {
	out := make([]relcomp.Mutation, len(ms))
	for i, m := range ms {
		out[i] = relcomp.Mutation{Op: relcomp.OpUpdateEdgeProb, From: relcomp.NodeID(m.From), To: relcomp.NodeID(m.To), P: m.P}
	}
	return out
}
