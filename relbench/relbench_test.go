package main

import (
	"context"
	"math"
	"testing"

	"relcomp"
)

// smallGraph is a 7-node, 14-edge directed graph with two routes of
// different lengths from 0 to 6, a back edge, and a shortcut.
func smallGraph() *graph {
	es := []edge{
		{0, 1, 0.6}, {0, 2, 0.5}, {1, 3, 0.7}, {2, 3, 0.4}, {1, 2, 0.3},
		{3, 4, 0.8}, {3, 5, 0.5}, {4, 6, 0.6}, {5, 6, 0.7}, {2, 5, 0.2},
		{4, 1, 0.9}, {5, 4, 0.3}, {0, 5, 0.1}, {6, 0, 0.5},
	}
	return newGraph("small", 7, es)
}

// exactReliability enumerates every possible world of g.
func exactReliability(g *graph, s, t int32) float64 {
	m := len(g.edges)
	total := 0.0
	for mask := 0; mask < 1<<m; mask++ {
		pw := 1.0
		for i, e := range g.edges {
			if mask&(1<<i) != 0 {
				pw *= e.p
			} else {
				pw *= 1 - e.p
			}
		}
		seen := make([]bool, g.n)
		seen[s] = true
		stack := []int32{s}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ei := range g.adj[g.off[v]:g.off[v+1]] {
				if mask&(1<<ei) != 0 && !seen[g.edges[ei].to] {
					seen[g.edges[ei].to] = true
					stack = append(stack, g.edges[ei].to)
				}
			}
		}
		if seen[t] {
			total += pw
		}
	}
	return total
}

func TestReferenceMatchesExactEnumeration(t *testing.T) {
	g := smallGraph()
	if len(g.edges) > 20 {
		t.Fatalf("test graph has %d edges; exact enumeration is meant for at most 20", len(g.edges))
	}
	const n = 200000
	ts := []int32{3, 4, 6, 5}
	for _, seed := range []uint64{1, 2} {
		got := g.reference(0, ts, n, seed)
		for i, tgt := range ts {
			want := exactReliability(g, 0, tgt)
			sigma := math.Sqrt(want * (1 - want) / n)
			if math.Abs(got[i]-want) > 5*sigma {
				t.Errorf("seed %d: R(0,%d) reference %v, exact %v (5 sigma = %v)", seed, tgt, got[i], want, 5*sigma)
			}
		}
	}
	// The source itself is always reached.
	if r := g.reference(2, []int32{2}, 100, 1); r[0] != 1 {
		t.Errorf("R(s,s) = %v, want 1", r[0])
	}
}

func TestReferenceIsAFunctionOfItsInputs(t *testing.T) {
	g := smallGraph()
	a := g.references([]refQuery{{0, []int32{6}}, {1, []int32{5, 6}}}, 5000, 7)
	b := g.references([]refQuery{{0, []int32{6}}, {1, []int32{5, 6}}}, 5000, 7)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("reference differs between identical calls: %v vs %v", a, b)
			}
		}
	}
}

func TestToleranceRejectsSixSigma(t *testing.T) {
	for _, ref := range []float64{0.05, 0.3, 0.5, 0.9} {
		k, n := 1000, refWorlds
		sigma := math.Sqrt(ref*(1-ref)/float64(k) + ref*(1-ref)/float64(n))
		tol := tolerance(ref, k, n)
		for _, sign := range []float64{-1, 1} {
			if moved := ref + sign*6*sigma; math.Abs(moved-ref) <= tol {
				t.Errorf("ref %v: answer moved by 6 sigma (%v) accepted, tolerance %v", ref, moved, tol)
			}
			if near := ref + sign*4*sigma; math.Abs(near-ref) > tol {
				t.Errorf("ref %v: answer moved by 4 sigma (%v) rejected, tolerance %v", ref, near, tol)
			}
		}
	}
	// Near 0 the floor keeps a few stray successes acceptable.
	if tolerance(0, 1000, refWorlds) < 0.003 {
		t.Errorf("tolerance at R=0 is %v, below three successes in 1000", tolerance(0, 1000, refWorlds))
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Errorf("quantile sorted its input in place")
	}
	if got := quantile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9); got != 10 {
		t.Errorf("p90 of 1..11 = %v, want 10", got)
	}
	if got := quantile([]float64{0, 10}, 0.25); got != 2.5 {
		t.Errorf("interpolated quantile = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two-point quartiles = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if !tailOK(1000, 0.99) || tailOK(999, 0.99) || !tailOK(100, 0.9) || tailOK(99, 0.9) {
		t.Errorf("tailOK does not demand ten samples beyond the percentile")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Start: 25, End: 35},
		{ID: 6, Start: 200, End: 260},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10, 6: 60}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestCheckAnswer(t *testing.T) {
	st := query{S: 0, T: 3, K: 1000, Estimator: "MC"}
	ok := answer{Estimator: "MC", Reliability: 0.4, SamplesUsed: 1000}
	if err := checkAnswer(st, ok, 7); err != nil {
		t.Errorf("good answer rejected: %v", err)
	}
	bad := []answer{
		{Estimator: "RSS", Reliability: 0.4, SamplesUsed: 1000}, // another estimator
		{Estimator: "MC", Reliability: 1.2, SamplesUsed: 1000},  // outside [0,1]
		{Estimator: "MC", Reliability: 0.4, SamplesUsed: 999},   // wrong sample count
		{Estimator: "MC", Reliability: 0.4, SamplesUsed: 1000, Degraded: true},
		{Estimator: "MC", Error: "boom"},
	}
	for _, a := range bad {
		if checkAnswer(st, a, 7) == nil {
			t.Errorf("bad answer %+v accepted", a)
		}
	}
	anytime := st
	anytime.Eps = 0.05
	if checkAnswer(anytime, answer{Estimator: "MC", Reliability: 0.4, SamplesUsed: 256}, 7) != nil {
		t.Errorf("anytime answer below the cap rejected")
	}
	topk := query{Kind: "topk", S: 0, TopK: 3, K: 1000, Estimator: "BFSSharing"}
	unsorted := answer{Estimator: "BFSSharing", SamplesUsed: 1000, Targets: []target{{1, 0.2}, {2, 0.5}}}
	if checkAnswer(topk, unsorted, 7) == nil {
		t.Errorf("unsorted top-k accepted")
	}
	ss := query{Kind: "single_source", S: 2, K: 1000, Estimator: "BFSSharing"}
	if checkAnswer(ss, answer{Estimator: "BFSSharing", SamplesUsed: 1000, Reliabilities: []float64{0.1, 0.2, 0.9}}, 3) == nil {
		t.Errorf("single-source vector without 1 at the source accepted")
	}
	if checkAnswer(ss, answer{Estimator: "BFSSharing", SamplesUsed: 1000, Reliabilities: []float64{0.1, 1}}, 3) == nil {
		t.Errorf("single-source vector of the wrong length accepted")
	}
	dist := query{Kind: "distance", S: 0, T: 3, D: 3, K: 1000, Estimator: "MC"}
	if checkAnswer(dist, answer{Estimator: "MC(d<=3)", Reliability: 0.2, SamplesUsed: 1000}, 7) != nil {
		t.Errorf("distance answer from the hop-bounded MC rejected")
	}
}

func TestPairSourceHops(t *testing.T) {
	g := smallGraph()
	ps := newPairSource(g, newRNG(3, 0))
	dist := make([]int32, g.n)
	for i := 0; i < 5; i++ {
		p, err := ps.pair(2)
		if err != nil {
			t.Fatal(err)
		}
		dist, _ = g.hops(p[0], 10, dist, nil)
		if dist[p[1]] != 2 {
			t.Errorf("pair %v is %d hops apart, want 2", p, dist[p[1]])
		}
	}
}

// engine.self_us pairs Engine.Estimate with a direct call on a borrowed
// replica reseeded by engineQuerySeed; the pairing holds only while the
// direct call draws the engine's worlds and returns its answer.
func TestEngineQuerySeedReproducesEngine(t *testing.T) {
	g, err := datasetGraph("lastFM", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := relcomp.Dataset("lastFM", 0.2, 42)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := relcomp.NewEngine(rg, relcomp.EngineConfig{Seed: engineSeed, MaxK: maxK})
	if err != nil {
		t.Fatal(err)
	}
	ps := newPairSource(g, newRNG(1, 1))
	for _, name := range []string{"MC", "PackMC", "PackMC256", "BFSSharing", "ProbTree", "LP+", "RHH", "RSS"} {
		p, err := ps.pair(hopsST)
		if err != nil {
			t.Fatal(err)
		}
		const k = 60
		want := eng.Estimate(context.Background(), relcomp.Request{S: relcomp.NodeID(p[0]), T: relcomp.NodeID(p[1]), K: k, Estimator: name})
		var got float64
		if err := relcomp.BorrowEstimator(eng, name, func(est relcomp.Estimator) error {
			if sd, ok := est.(interface{ Reseed(uint64) }); ok { // BFS Sharing's worlds are its index
				sd.Reseed(engineQuerySeed(name, p[0], p[1], k))
			}
			got = est.Estimate(relcomp.NodeID(p[0]), relcomp.NodeID(p[1]), k)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want.Err != nil || got != want.Reliability {
			t.Errorf("%s R(%d,%d): direct %v, engine %v (err %v)", name, p[0], p[1], got, want.Reliability, want.Err)
		}
	}
}
