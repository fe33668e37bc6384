package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"

	"relcomp"
)

// rng is the benchmark's own splitmix64 stream. Inputs and reference
// worlds are drawn from it, never from the program's generators, so a
// change to the program cannot move the inputs or the reference.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ stream*0xd1b54a32d192ed03}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// edge is one directed uncertain edge of the benchmark's copy of a graph.
type edge struct {
	from, to int32
	p        float64
}

// graph is the benchmark's own copy of the served graph: the edge list it
// writes for the server (-graph) and for relsnap, and an out-adjacency for
// its own BFS. Edge i here is edge i of the served graph.
type graph struct {
	name  string
	n     int
	edges []edge
	off   []int32 // out-edges of v are adj[off[v]:off[v+1]]
	adj   []int32 // edge indices
	index map[[2]int32]int32
}

func newGraph(name string, n int, edges []edge) *graph {
	g := &graph{name: name, n: n, edges: edges, off: make([]int32, n+1), adj: make([]int32, len(edges)),
		index: make(map[[2]int32]int32, len(edges))}
	for _, e := range edges {
		g.off[e.from+1]++
	}
	for v := 0; v < n; v++ {
		g.off[v+1] += g.off[v]
	}
	fill := append([]int32(nil), g.off[:n]...)
	for i, e := range edges {
		g.adj[fill[e.from]] = int32(i)
		fill[e.from]++
		g.index[[2]int32{e.from, e.to}] = int32(i)
	}
	return g
}

// datasetGraph materialises a synthetic dataset as an edge list. The
// graph is fixed (generator seed 42); the workload seed picks the queries.
func datasetGraph(name string, scale float64) (*graph, error) {
	src, err := relcomp.Dataset(name, scale, 42)
	if err != nil {
		return nil, err
	}
	edges := make([]edge, 0, src.NumEdges())
	for _, e := range src.Edges() {
		edges = append(edges, edge{int32(e.From), int32(e.To), e.P})
	}
	return newGraph(name, src.NumNodes(), edges), nil
}

// writeText writes the graph in the program's text format ("n m" then
// "from to p" lines), with probabilities printed to round-trip exactly.
func (g *graph) writeText(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\n%d %d\n", g.name, g.n, len(g.edges))
	for _, e := range g.edges {
		fmt.Fprintf(w, "%d %d %s\n", e.from, e.to, strconv.FormatFloat(e.p, 'g', -1, 64))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// withProbs returns a copy of g with the listed edge probabilities set.
func (g *graph) withProbs(updates []mutation) (*graph, error) {
	edges := append([]edge(nil), g.edges...)
	for _, m := range updates {
		i, ok := g.index[[2]int32{m.From, m.To}]
		if !ok {
			return nil, fmt.Errorf("mutation of missing edge %d->%d", m.From, m.To)
		}
		edges[i].p = m.P
	}
	return newGraph(g.name, g.n, edges), nil
}

// hops returns the unweighted BFS distance from s of every node within
// maxHops (-1 beyond), reusing dist.
func (g *graph) hops(s int32, maxHops int, dist []int32, queue []int32) ([]int32, []int32) {
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue = append(queue[:0], s)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if int(dist[v]) == maxHops {
			continue
		}
		for _, ei := range g.adj[g.off[v]:g.off[v+1]] {
			if u := g.edges[ei].to; dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist, queue
}

// pairSource draws query endpoints from the graph's topology.
type pairSource struct {
	g     *graph
	r     *rng
	dist  []int32
	queue []int32
	seen  map[[2]int32]bool
}

func newPairSource(g *graph, r *rng) *pairSource {
	return &pairSource{g: g, r: r, dist: make([]int32, g.n), seen: map[[2]int32]bool{}}
}

// fork returns a pair source drawing from r that avoids, and records,
// the same pairs as ps. Set-up inputs come from a fork with a fixed seed,
// so set-up does the same work whatever the workload seed.
func (ps *pairSource) fork(r *rng) *pairSource {
	return &pairSource{g: ps.g, r: r, dist: make([]int32, ps.g.n), seen: ps.seen}
}

// pair draws a pair (s, t) not drawn before whose shortest path has
// exactly h hops.
func (ps *pairSource) pair(h int) ([2]int32, error) {
	for attempt := 0; attempt < 10000; attempt++ {
		s := int32(ps.r.intn(ps.g.n))
		ps.dist, ps.queue = ps.g.hops(s, h, ps.dist, ps.queue)
		var at []int32
		for _, v := range ps.queue {
			if int(ps.dist[v]) == h {
				at = append(at, v)
			}
		}
		if len(at) == 0 {
			continue
		}
		p := [2]int32{s, at[ps.r.intn(len(at))]}
		if !ps.seen[p] {
			ps.seen[p] = true
			return p, nil
		}
	}
	return [2]int32{}, fmt.Errorf("%s: no fresh %d-hop pair found", ps.g.name, h)
}

// group draws a source with at least nt targets within maxHops, none of
// its (source, target) pairs drawn before, and nt such targets.
func (ps *pairSource) group(nt, maxHops int) (int32, []int32, error) {
	for attempt := 0; attempt < 10000; attempt++ {
		s := int32(ps.r.intn(ps.g.n))
		ps.dist, ps.queue = ps.g.hops(s, maxHops, ps.dist, ps.queue)
		var cand []int32
		for _, v := range ps.queue[1:] {
			if !ps.seen[[2]int32{s, v}] {
				cand = append(cand, v)
			}
		}
		if len(cand) < nt {
			continue
		}
		ts := make([]int32, 0, nt)
		for len(ts) < nt {
			i := ps.r.intn(len(cand))
			ts = append(ts, cand[i])
			ps.seen[[2]int32{s, cand[i]}] = true
			cand[i] = cand[len(cand)-1]
			cand = cand[:len(cand)-1]
		}
		return s, ts, nil
	}
	return 0, nil, fmt.Errorf("%s: no source with %d fresh targets within %d hops", ps.g.name, nt, maxHops)
}

// reference estimates R(s, t) for every t in ts by plain Monte Carlo over
// n possible worlds: a BFS from s that flips each edge's coin when the
// BFS first examines it (each edge is examined at most once per world, so
// this samples the world exactly) and stops once every target is reached.
func (g *graph) reference(s int32, ts []int32, n int, seed uint64) []float64 {
	r := newRNG(seed, uint64(s)+1)
	want := make(map[int32]int, len(ts))
	for i, t := range ts {
		want[t] = i
	}
	hits := make([]int, len(ts))
	stamp := make([]int32, g.n)
	queue := make([]int32, 0, 64)
	for w := int32(1); w <= int32(n); w++ {
		stamp[s] = w
		queue = append(queue[:0], s)
		left := len(ts)
		if i, ok := want[s]; ok {
			hits[i]++
			left--
		}
		for head := 0; head < len(queue) && left > 0; head++ {
			v := queue[head]
			for _, ei := range g.adj[g.off[v]:g.off[v+1]] {
				e := g.edges[ei]
				if stamp[e.to] == w || r.float() >= e.p {
					continue
				}
				stamp[e.to] = w
				queue = append(queue, e.to)
				if i, ok := want[e.to]; ok {
					hits[i]++
					left--
				}
			}
		}
	}
	out := make([]float64, len(ts))
	for i, h := range hits {
		out[i] = float64(h) / float64(n)
	}
	return out
}

// refQuery names the reliabilities to reference: every target of s.
type refQuery struct {
	S  int32
	Ts []int32
}

// references runs reference for each query on two goroutines (the
// machine's core count) and returns refs[i][j] = R(qs[i].S, qs[i].Ts[j]).
func (g *graph) references(qs []refQuery, n int, seed uint64) [][]float64 {
	out := make([][]float64, len(qs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = g.reference(qs[i].S, qs[i].Ts, n, seed)
			}
		}()
	}
	for i := range qs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// refWorlds is the reference's world count: its standard error is a
// sixth of that of a k=1000 answer.
const refWorlds = 40000

// tolerance is the largest |answer - reference| accepted for an answer
// from k samples against a reference from n worlds: five standard errors
// of their difference. The variance is floored at that of four successes
// in k, so pairs near 0 or 1 are not judged by a vanishing width.
func tolerance(ref float64, k, n int) float64 {
	v := max(ref*(1-ref), 4/float64(k))
	return 5 * math.Sqrt(v/float64(k)+v/float64(n))
}
