// Command relbench is relcomp's serving benchmark. It runs one of four
// closed-loop workloads against a fresh relserver process over loopback,
// checks every answer, and prints one JSON line of metrics:
//
//	relbench --workload hit-hot --seed 1 --seconds 12 --trace 0
//
// With --trace 1 it runs the workload again with spans recorded and an
// in-process pass over each layer, and prints the per-layer metrics.
//
//	relbench steady --workload miss-six --runs 10 --seconds 12
//
// runs a workload on ten seeds and prints each metric's median,
// quartiles and largest deviation from the median.
//
//	relbench reference --workload miss-six --seed 1
//
// prints the benchmark's own Monte Carlo reference for the answers a run
// of that workload and seed checks against it.
//
// run.sh builds relbench, relserver and relsnap from the working tree and
// passes --bin and --work.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "steady":
		err = steady(ctx, os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "reference":
		err = reference(os.Args[2:])
	default:
		err = runOnce(ctx, os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "relbench:", err)
		stop()
		os.Exit(1)
	}
}

type runFlags struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	bin      string
	work     string
}

func parseRunFlags(name string, args []string, withRuns bool) (runFlags, int, error) {
	var f runFlags
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.StringVar(&f.workload, "workload", "", "hit-hot, miss-six, batch-source or mutate-read")
	fs.Uint64Var(&f.seed, "seed", 1, "workload seed (the first seed with steady)")
	fs.IntVar(&f.seconds, "seconds", 30, "length of the timed window")
	fs.IntVar(&f.trace, "trace", 0, "1 records spans and prints per-layer metrics")
	fs.StringVar(&f.bin, "bin", ".bench_build/bin", "directory holding relserver and relsnap")
	fs.StringVar(&f.work, "work", ".bench_build", "scratch directory")
	runs := 0
	if withRuns {
		fs.IntVar(&runs, "runs", 10, "runs, one seed each")
	}
	if err := fs.Parse(args); err != nil {
		return f, 0, err
	}
	if f.workload == "" {
		return f, 0, fmt.Errorf("--workload is required")
	}
	return f, runs, nil
}

func runOnce(ctx context.Context, args []string) error {
	f, _, err := parseRunFlags("relbench", args, false)
	if err != nil {
		return err
	}
	for _, b := range []string{"relserver", "relsnap"} {
		if _, err := os.Stat(filepath.Join(f.bin, b)); err != nil {
			return fmt.Errorf("%s not built: %v (run relbench/run.sh)", b, err)
		}
	}
	dir := filepath.Join(f.work, "runs", fmt.Sprintf("%s-%d-%d", f.workload, f.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bin, err := filepath.Abs(f.bin)
	if err != nil {
		return err
	}
	e := &env{bin: bin, dir: dir, seed: f.seed, dur: time.Duration(f.seconds) * time.Second, refDir: filepath.Join(f.work, "refcache")}
	if f.trace != 0 {
		e.tr = newTracer()
	}
	rep, err := runWorkload(ctx, e, f.workload)
	if err != nil {
		return err
	}
	if e.tr != nil {
		path := filepath.Join(f.work, "trace", fmt.Sprintf("%s-seed%d.spans.jsonl", f.workload, f.seed))
		if err := e.tr.write(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "relbench: spans written to %s\n", path)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// steady runs one workload on consecutive seeds, each run a fresh
// process, and prints per metric the median, the quartiles, the spread
// (q3-q1)/median and the largest deviation from the median.
func steady(ctx context.Context, args []string) error {
	f, runs, err := parseRunFlags("relbench steady", args, true)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var shares []string
	for i := 0; i < runs; i++ {
		seed := f.seed + uint64(i)
		cmd := exec.CommandContext(ctx, self, "--workload", f.workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(f.seconds), "--trace", strconv.Itoa(f.trace), "--bin", f.bin, "--work", f.work)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		var rep report
		lines := splitLines(string(out))
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		shares = append(shares, fmt.Sprintf("%d/%d", rep.Failed, rep.Attempted))
		for k, m := range rep.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "relbench steady: seed %d: %s\n", seed, lines[len(lines)-1])
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s, %d runs, seeds %d..%d, %d s each; failed/attempted: %v\n", f.workload, runs, f.seed, f.seed+uint64(runs)-1, f.seconds, shares)
	fmt.Printf("%-36s %-6s %12s %12s %12s %9s %9s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "maxdev")
	for _, k := range names {
		xs := values[k]
		med := median(xs)
		q1, q3 := quartiles(xs)
		dev := 0.0
		for _, x := range xs {
			dev = max(dev, abs(x-med))
		}
		rel := func(x float64) string {
			if med == 0 {
				return "-"
			}
			return fmt.Sprintf("%.3f", x/med)
		}
		fmt.Printf("%-36s %-6s %12.4f %12.4f %12.4f %9s %9s\n", k, units[k], med, q1, q3, rel(q3-q1), rel(dev))
	}
	return nil
}

func splitLines(s string) []string {
	return strings.Split(strings.TrimRight(s, "\n"), "\n")
}

// reference prints the reference reliabilities a run of the workload and
// seed checks its sampled answers against (mutate-read's depend on how
// many batches the run committed, so its command prints them for the
// graph before any mutation).
func reference(args []string) error {
	f, _, err := parseRunFlags("relbench reference", args, false)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(f.work, "reference-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{dir: dir, seed: f.seed, dur: time.Duration(f.seconds) * time.Second, refDir: filepath.Join(f.work, "refcache")}
	w, err := newWorkload(f.workload, e)
	if err != nil {
		return err
	}
	var qs []query
	for _, ops := range w.lists {
		for _, o := range ops {
			if !o.keep {
				continue
			}
			items := o.items
			if o.kind == opQuery {
				items = []query{o.q}
			}
			for _, q := range items {
				if q.Kind == "" {
					qs = append(qs, q)
				}
			}
		}
	}
	for _, o := range w.post {
		qs = append(qs, o.q)
	}
	refs := cachedReferences(e, w.g, qs)
	fmt.Printf("# %s seed %d: %d-world reference on %s\n", f.workload, f.seed, refWorlds, w.g.name)
	for i, q := range qs {
		fmt.Printf("%s\t%d\t%d\t%.6f\n", q.Estimator, q.S, q.T, refs[i])
	}
	return nil
}
