// Command perfbench is the repository's end-to-end benchmark. It builds
// a database from a seed through the storage API, starts volcano-serve
// (and, for dist-agg, two volcano-worker processes) over it with the
// shipped defaults, and drives a closed-loop traffic mix over loopback
// HTTP. Every reply is checked against a reference result computed in
// process. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (latency, throughput,
// CPU, allocation and memory per query, set-up time); with -trace 1 a
// run alternating untraced and traced cycles reports per-layer figures
// from the analyzed trailers and from timing each layer's entry points
// alone, and writes its spans, keyed by query ID, to the work directory.
//
//	perfbench -workload join-agg -seed 1 -seconds 10 -trace 0 -bin BIN -work DIR
//	perfbench -compare OLD.json NEW.json
//
// perfbench/run.py builds the binaries and runs this from a checkout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // directory holding volcano-serve and volcano-worker
	work     string // directory for databases, spans and results
	root     string // checkout root, for the source digest
}

// setupReps is how many times a run sets up from scratch; setup_s is the
// median.
const setupReps = 3

func main() {
	var o options
	var traceFlag int
	var cmp string
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the data and the request mix")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed loop")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.bin, "bin", "", "directory holding volcano-serve and volcano-worker")
	flag.StringVar(&o.work, "work", "", "directory for databases, spans and results")
	flag.StringVar(&o.root, "root", ".", "checkout root (names the code under test)")
	flag.StringVar(&cmp, "compare", "", "compare this saved result (the base) with the one named as the argument")
	flag.Parse()
	o.trace = traceFlag == 1

	if cmp != "" {
		os.Exit(runCompare(cmp, flag.Arg(0)))
	}
	if o.bin == "" || o.work == "" || o.workload == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -workload, -bin and -work are required")
		os.Exit(2)
	}
	res, err := runAll(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
}

func runCompare(a, b string) int {
	ra, err := loadResult(a)
	if err == nil {
		var rb savedResult
		if rb, err = loadResult(b); err == nil {
			err = compare(os.Stdout, ra, rb)
		}
	}
	switch {
	case errors.Is(err, errRefused):
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 3
	case err != nil:
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runAll runs one workload, or with "all" every workload in turn, and
// returns the result to print; for "all" the metrics are prefixed with
// the workload's name.
func runAll(o options, out io.Writer) (result, error) {
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	host := currentHost(o.root)
	hb, _ := json.Marshal(host)
	fmt.Fprintf(out, "host %s\n", hb)
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		o.workload = name
		res, probes, err := runWorkload(o, out)
		if err != nil {
			return total, fmt.Errorf("%s: %w", name, err)
		}
		printMetrics(out, name, res)
		if err := save(o, host, res, probes); err != nil {
			return total, err
		}
		if len(names) == 1 {
			return res, nil
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[name+"."+k] = v
		}
	}
	return total, nil
}

func printMetrics(out io.Writer, name string, res result) {
	var keys []string
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(out, "%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, k := range keys {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

func save(o options, host hostTag, res result, probes []string) error {
	dir := filepath.Join(o.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(savedResult{Host: host, Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Result: res, Probes: probes}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v.json", o.workload, o.seed, o.trace)), b, 0o644)
}

// references computes the reference digest of every query of the
// workload, in process over the generated database.
func references(db string, w *workload) ([]digest, error) {
	st, err := openStore(db, 4096)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	env := core.NewEnv(st.pool, st.temp)
	cat := plan.VolumeCatalog{st.vol}
	refs := make([]digest, len(w.queries))
	for i, q := range w.queries {
		if refs[i], err = referenceDigest(env, cat, q); err != nil {
			return nil, fmt.Errorf("reference %q: %w", q.text, err)
		}
	}
	return refs, nil
}

// setup generates the database, starts the cluster and warms it up with
// one whole cycle of every client, returning the cluster and the time
// taken. The reference digests are computed once, between generation
// and start, outside the timed part.
func setup(o options, w *workload, db string, refs *[]digest) (*cluster, time.Duration, error) {
	_ = os.Remove(db)
	start := time.Now()
	if err := generate(db, o.seed, fullData); err != nil {
		return nil, 0, fmt.Errorf("generate: %w", err)
	}
	took := time.Since(start)
	if *refs == nil {
		r, err := references(db, w)
		if err != nil {
			return nil, 0, err
		}
		*refs = r
	}
	start = time.Now()
	cl, err := startCluster(o.bin, db, w)
	if err != nil {
		return nil, 0, err
	}
	l := newLoop(w, cl.serve.addr, *refs)
	err = l.once()
	l.close()
	if err != nil {
		cl.stop()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return cl, took + time.Since(start), nil
}

// runProbes sends each probe once, checks it against its twin's
// reference, and returns the error text of every one that fails.
func runProbes(w *workload, addr string, refs []digest) []string {
	l := newLoop(w, addr, refs)
	defer l.close()
	var fails []string
	for _, p := range w.probes {
		for i, q := range w.queries {
			if q.text != p.twin {
				continue
			}
			if s := l.do(query{text: p.text, ordered: q.ordered}, refs[i], ""); !s.ok {
				fails = append(fails, fmt.Sprintf("%q: %s", p.text, s.err))
			}
		}
	}
	return fails
}

func runWorkload(o options, out io.Writer) (result, []string, error) {
	w, err := buildWorkload(o.workload, o.seed, fullData)
	if err != nil {
		return result{}, nil, err
	}
	dir := filepath.Join(o.work, o.workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, nil, err
	}
	db := filepath.Join(dir, "db.vol")

	var refs []digest
	var cl *cluster
	var setups []float64
	for i := 0; i < setupReps; i++ {
		c, took, err := setup(o, w, db, &refs)
		if err != nil {
			return result{}, nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupReps-1 {
			c.stop()
		} else {
			cl = c
		}
	}
	defer cl.stop()

	probes := runProbes(w, cl.serve.addr, refs)
	for _, p := range probes {
		fmt.Fprintf(out, "probe failed: %s\n", p)
	}

	l := newLoop(w, cl.serve.addr, refs)
	defer l.close()
	l.runID = fmt.Sprintf("%s-s%d", o.workload, o.seed)
	if o.trace {
		l.spans = newSpanLog()
	}
	m0, err := scrape(cl.serve.addr)
	if err != nil {
		return result{}, nil, err
	}
	wins, err := measure(cl, l, time.Duration(o.seconds)*time.Second, o.trace)
	if err != nil {
		return result{}, nil, err
	}
	m1, err := scrape(cl.serve.addr)
	if err != nil {
		return result{}, nil, err
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	var all []sample
	var alloc, stolen, total float64
	fmt.Fprintf(out, "host steal by window:")
	for _, win := range wins {
		all = append(all, win.samples...)
		alloc += win.alloc
		stolen += win.stolen
		total += win.ticks
		fmt.Fprintf(out, " %.3f", ratio(win.stolen, win.ticks))
	}
	fmt.Fprintln(out)
	for _, s := range all {
		res.Attempted++
		if !s.ok {
			res.Failed++
			res.Correct = false
			if res.Failed <= 5 {
				fmt.Fprintf(out, "request failed: %q: %s\n", w.queries[s.query].text, s.err)
			}
		}
	}
	if res.Failed == res.Attempted {
		return res, probes, nil
	}
	if !o.trace {
		res.Metrics = endToEnd(wins)
		res.Metrics["setup_s"] = metric{Value: medianFloat(setups), Unit: "s"}
		return res, probes, nil
	}

	layers, err := layerMetrics(all, m0, m1, alloc)
	if err != nil {
		return result{}, nil, err
	}
	layers["probe_failed"] = metric{Value: float64(len(probes)), Unit: "count"}
	layers["host.steal_share"] = metric{Value: ratio(stolen, total), Unit: "ratio"}
	st, err := openStore(db, 4096)
	if err != nil {
		return result{}, nil, err
	}
	rung, err := rungs(st, w, pointKeys(o.seed, fullData), l.spans)
	st.Close()
	if err != nil {
		return result{}, nil, fmt.Errorf("rungs: %w", err)
	}
	for k, v := range rung {
		unit := "ns"
		if strings.HasSuffix(k, "_us") {
			unit = "us"
		}
		layers[k] = metric{Value: v, Unit: unit}
	}
	res.Metrics = layers
	if err := l.spans.write(filepath.Join(dir, "spans.json")); err != nil {
		return result{}, nil, err
	}
	return res, probes, nil
}
