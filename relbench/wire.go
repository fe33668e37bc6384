package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// query is one wire query: a POST /v1/query body or a /v1/batch item.
// Every query names its estimator.
type query struct {
	Kind      string  `json:"kind,omitempty"`
	S         int32   `json:"s"`
	T         int32   `json:"t"`
	K         int     `json:"k"`
	D         int     `json:"d,omitempty"`
	TopK      int     `json:"topk,omitempty"`
	Targets   []int32 `json:"targets,omitempty"`
	Estimator string  `json:"estimator"`
	Eps       float64 `json:"eps,omitempty"`
}

// answeredBy is the estimator name a correct answer reports: the pinned
// one, except for the kinds the engine serves with a fixed method.
func (q query) answeredBy() string {
	switch q.Kind {
	case "distance":
		return fmt.Sprintf("MC(d<=%d)", q.D)
	case "kterminal":
		return "KTerminal"
	}
	return q.Estimator
}

// mutation is one wire edge mutation of POST /v1/mutate.
type mutation struct {
	Op   string  `json:"op"`
	From int32   `json:"from"`
	To   int32   `json:"to"`
	P    float64 `json:"p"`
}

type target struct {
	Node        int32   `json:"node"`
	Reliability float64 `json:"reliability"`
}

// answer is the part of one wire result the benchmark checks.
type answer struct {
	Kind          string    `json:"kind"`
	Estimator     string    `json:"estimator"`
	Reliability   float64   `json:"reliability"`
	Reliabilities []float64 `json:"reliabilities"`
	Targets       []target  `json:"targets"`
	Cached        bool      `json:"cached"`
	Degraded      bool      `json:"degraded"`
	Epoch         uint64    `json:"epoch"`
	TimeMs        float64   `json:"timeMs"`
	SamplesUsed   int       `json:"samples_used"`
	Error         string    `json:"error"`
}

type batchAnswer struct {
	Results []answer `json:"results"`
	TimeMs  float64  `json:"timeMs"`
}

type mutateAnswer struct {
	Epoch   uint64 `json:"epoch"`
	Applied int    `json:"applied"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are marshalled
	}
	return b
}

func inUnit(x float64) bool { return x >= 0 && x <= 1 && !math.IsNaN(x) }

// checkAnswer applies the checks every answer must pass, whatever the
// workload: no error, not degraded, answered by the pinned estimator,
// values in [0,1], the sample count the budget implies, and the
// kind-specific shape (top-k sorted, one single-source entry per node
// with 1 at the source).
func checkAnswer(q query, a answer, nodes int) error {
	if a.Error != "" {
		return fmt.Errorf("error %q", a.Error)
	}
	if a.Degraded {
		return fmt.Errorf("degraded answer")
	}
	if want := q.answeredBy(); a.Estimator != want {
		return fmt.Errorf("answered by %q, pinned %q", a.Estimator, want)
	}
	if q.Eps > 0 {
		if a.SamplesUsed < 1 || a.SamplesUsed > q.K {
			return fmt.Errorf("anytime samples_used %d outside [1,%d]", a.SamplesUsed, q.K)
		}
	} else if a.SamplesUsed != q.K {
		return fmt.Errorf("samples_used %d, want %d", a.SamplesUsed, q.K)
	}
	switch q.Kind {
	case "topk":
		if len(a.Targets) == 0 || len(a.Targets) > q.TopK {
			return fmt.Errorf("topk returned %d targets, want 1..%d", len(a.Targets), q.TopK)
		}
		for i, t := range a.Targets {
			if !inUnit(t.Reliability) {
				return fmt.Errorf("topk reliability %v outside [0,1]", t.Reliability)
			}
			if i > 0 && t.Reliability > a.Targets[i-1].Reliability {
				return fmt.Errorf("topk not sorted by descending reliability")
			}
		}
	case "single_source":
		if len(a.Reliabilities) != nodes {
			return fmt.Errorf("single_source has %d entries, want %d", len(a.Reliabilities), nodes)
		}
		if a.Reliabilities[q.S] != 1 {
			return fmt.Errorf("single_source reliability at the source is %v, want 1", a.Reliabilities[q.S])
		}
		for _, r := range a.Reliabilities {
			if !inUnit(r) {
				return fmt.Errorf("single_source reliability %v outside [0,1]", r)
			}
		}
	default:
		if !inUnit(a.Reliability) {
			return fmt.Errorf("reliability %v outside [0,1]", a.Reliability)
		}
	}
	return nil
}

// sameAnswer reports whether two answers carry bit-identical values.
func sameAnswer(a, b answer) bool {
	if math.Float64bits(a.Reliability) != math.Float64bits(b.Reliability) ||
		len(a.Targets) != len(b.Targets) || len(a.Reliabilities) != len(b.Reliabilities) {
		return false
	}
	for i := range a.Targets {
		if a.Targets[i].Node != b.Targets[i].Node ||
			math.Float64bits(a.Targets[i].Reliability) != math.Float64bits(b.Targets[i].Reliability) {
			return false
		}
	}
	for i := range a.Reliabilities {
		if math.Float64bits(a.Reliabilities[i]) != math.Float64bits(b.Reliabilities[i]) {
			return false
		}
	}
	return true
}
