package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

type opKind int

const (
	opQuery opKind = iota
	opBatch
	opMutate
)

// op is one request of a workload, its body encoded before the timed
// window opens.
type op struct {
	kind     opKind
	body     []byte
	q        query      // opQuery
	items    []query    // opBatch
	muts     []mutation // opMutate
	want     *answer    // the set-up answer a cached reply must equal bit for bit
	mustMiss bool       // every key is new, so no answer may come from the cache
	keep     bool       // keep the decoded answers for the post-window checks
}

func newQueryOp(q query) *op { return &op{kind: opQuery, q: q, body: mustJSON(q)} }

func newBatchOp(items []query) *op {
	return &op{kind: opBatch, items: items, body: mustJSON(map[string]any{"queries": items})}
}

func newMutateOp(muts []mutation) *op {
	return &op{kind: opMutate, muts: muts, body: mustJSON(map[string]any{"mutations": muts})}
}

func (o *op) path() string {
	switch o.kind {
	case opBatch:
		return "/v1/batch"
	case opMutate:
		return "/v1/mutate"
	}
	return "/v1/query"
}

// queries is the number of queries the op asks (batch items count
// singly; a mutation batch asks none).
func (o *op) queries() int {
	switch o.kind {
	case opBatch:
		return len(o.items)
	case opMutate:
		return 0
	}
	return 1
}

// result is what a client observed for one op.
type result struct {
	op         *op
	start, end time.Duration // since the window opened
	bytes      int
	engineMs   float64 // engine time the response reports (timeMs)
	answered   int     // queries answered and passing every check
	attempted  int     // operations: the op's queries, or 1 for a mutation
	failed     int
	answers    []answer // decoded answers, kept when op.keep
	computedMs []float64
	epoch      uint64
	problem    string // the first failed check, for the log
}

// clientState carries what one client's checks remember between ops.
type clientState struct {
	nodes int
	epoch uint64 // last acknowledged mutation epoch
}

// evaluate checks one response and accounts for it.
func (st *clientState) evaluate(o *op, status int, body []byte, err error) result {
	r := result{op: o, bytes: len(body), attempted: max(o.queries(), 1)}
	fail := func(n int, format string, args ...any) {
		r.failed += n
		if r.problem == "" {
			r.problem = fmt.Sprintf(format, args...)
		}
	}
	if err != nil || status != 200 {
		fail(r.attempted, "%s: status %d, err %v: %.200s", o.path(), status, err, body)
		return r
	}
	checkOne := func(q query, a answer, want *answer) {
		if err := checkAnswer(q, a, st.nodes); err != nil {
			fail(1, "%+v: %v", q, err)
			return
		}
		switch {
		case want != nil && (!a.Cached || !sameAnswer(a, *want)):
			fail(1, "%+v: cached=%v, value differs from its set-up answer", q, a.Cached)
			return
		case o.mustMiss && a.Cached:
			fail(1, "%+v: a new key was answered from the cache", q)
			return
		}
		r.answered++
		if !a.Cached {
			r.computedMs = append(r.computedMs, a.TimeMs)
		}
	}
	switch o.kind {
	case opQuery:
		var a answer
		if err := json.Unmarshal(body, &a); err != nil {
			fail(1, "decode: %v", err)
			return r
		}
		r.engineMs = a.TimeMs
		checkOne(o.q, a, o.want)
		if o.keep {
			r.answers = []answer{a}
		}
	case opBatch:
		var b batchAnswer
		if err := json.Unmarshal(body, &b); err != nil || len(b.Results) != len(o.items) {
			fail(r.attempted, "batch decode: %v, %d results for %d items", err, len(b.Results), len(o.items))
			return r
		}
		r.engineMs = b.TimeMs
		for i, a := range b.Results {
			checkOne(o.items[i], a, nil)
		}
		if o.keep {
			r.answers = b.Results
		}
	case opMutate:
		var m mutateAnswer
		if err := json.Unmarshal(body, &m); err != nil {
			fail(1, "mutate decode: %v", err)
			return r
		}
		if m.Epoch != st.epoch+1 || m.Applied != len(o.muts) {
			fail(1, "mutate ack epoch %d applied %d, want epoch %d applied %d", m.Epoch, m.Applied, st.epoch+1, len(o.muts))
		}
		st.epoch = m.Epoch
		r.epoch = m.Epoch
	}
	return r
}

// window is what both clients observed in the timed window.
type window struct {
	results   [2][]result
	elapsed   time.Duration // from opening to the last reply
	exhausted bool          // a client ran out of pre-generated ops
	// cpu is the server's CPU time at each slice boundary: the window is
	// cut into len(cpu)-1 equal time slices.
	cpu    []time.Duration
	slice  time.Duration
	cpuErr error
}

// drive runs the closed loop: two clients, each on its own keep-alive
// connection, each sending its next op only after the previous reply, for
// dur. With cycle the clients loop over their lists; otherwise running
// out of ops ends that client early and is reported. Meanwhile it samples
// the server's (pid's) CPU time at the boundaries of that many equal
// time slices.
func drive(ctx context.Context, base string, lists [2][]*op, cycle bool, dur time.Duration, states [2]*clientState, tr *tracer, pid, slices int) window {
	var w window
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(dur)
	w.slice = dur / time.Duration(slices)
	wg.Add(1)
	go func() {
		// Sample the server's CPU time at every slice boundary.
		defer wg.Done()
		for i := 0; i <= slices; i++ {
			select {
			case <-time.After(time.Until(start.Add(time.Duration(i) * w.slice))):
			case <-ctx.Done():
				return
			}
			cpu, err := procCPU(pid)
			if err != nil {
				w.cpuErr = err
				return
			}
			w.cpu = append(w.cpu, cpu)
		}
	}()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			list := lists[c]
			var out []result
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				if i >= len(list) && !cycle {
					mu.Lock()
					w.exhausted = true
					mu.Unlock()
					break
				}
				o := list[i%len(list)]
				t0 := time.Since(start)
				status, body, err := post(client, base+o.path(), o.body)
				t1 := time.Since(start)
				r := states[c].evaluate(o, status, body, err)
				r.start, r.end = t0, t1
				out = append(out, r)
				if tr != nil {
					tr.request(tr.offset(start)+int64(t0), tr.offset(start)+int64(t1), r.engineMs)
				}
			}
			mu.Lock()
			w.results[c] = out
			if len(out) > 0 && out[len(out)-1].end > w.elapsed {
				w.elapsed = out[len(out)-1].end
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return w
}
