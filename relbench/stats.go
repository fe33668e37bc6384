package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method: quantile(0) is the minimum and
// quantile(1) the maximum). xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), which is how the run-to-run spread of a metric is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// Python's exclusive method, integer arithmetic included.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// tailOK reports whether a run of n samples holds at least ten beyond
// percentile p (0 < p < 1), the smallest tail worth naming.
func tailOK(n int, p float64) bool {
	return n-int(math.Ceil(p*float64(n)-1e-9)) >= 10
}

// span is one timed call into a layer, recorded by the benchmark around
// a call it makes (an HTTP request, or a direct call into the library).
// Times are nanoseconds since the run started. Spans of one request share
// Req; Parent is the ID of the enclosing span, 0 at the top.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its direct children (overlapping children are
// counted once, parts outside the parent are clipped).
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	c := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range c {
		if open && iv[0] <= curB {
			curB = max(curB, iv[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = iv[0], iv[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}
