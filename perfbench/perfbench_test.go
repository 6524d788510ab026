package main

import (
	"bytes"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/server"
)

var tinyData = dataSpec{EmpRows: 400, DeptRows: 8}

func TestPercentileNearestRank(t *testing.T) {
	var xs []time.Duration
	for i := 1; i <= 100; i++ {
		xs = append(xs, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %d, want %d", c.p, got, c.want)
		}
	}
	// With 10 samples p99 is the maximum and p50 the fifth value.
	ten := xs[:10]
	if got := percentile(ten, 99); got != 10 {
		t.Errorf("p99 of 1..10 = %d, want 10", got)
	}
	if got := percentile(ten, 50); got != 5 {
		t.Errorf("p50 of 1..10 = %d, want 5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %d, want 0", got)
	}
	if got := sortedDurations([]time.Duration{3, 1, 2}); got[0] != 1 || got[2] != 3 {
		t.Errorf("sortedDurations = %v", got)
	}
}

// tinyServer generates a tiny database and serves it in process the way
// volcano-serve does: costing on, row mode, analyzed execution.
func tinyServer(t *testing.T, seed int64) (addr, db string) {
	t.Helper()
	db = filepath.Join(t.TempDir(), "db.vol")
	if err := generate(db, seed, tinyData); err != nil {
		t.Fatal(err)
	}
	st, err := openStore(db, 512)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	srv, err := server.New(server.Config{
		Env:     core.NewEnv(st.pool, st.temp),
		Catalog: plan.VolumeCatalog{st.vol},
		Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://"), db
}

func tinyLoop(t *testing.T, name string) *loop {
	t.Helper()
	addr, db := tinyServer(t, 7)
	w, err := buildWorkload(name, 7, tinyData)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := references(db, w)
	if err != nil {
		t.Fatal(err)
	}
	l := newLoop(w, addr, refs)
	t.Cleanup(l.close)
	return l
}

func TestDigestChecker(t *testing.T) {
	l := tinyLoop(t, "join-agg")
	q := l.w.queries[0]
	s := l.do(q, l.refs[0], "")
	if !s.ok {
		t.Fatalf("reply does not match its reference: %s", s.err)
	}

	// Fetch the raw body to tamper with.
	resp, err := l.client.Post(l.url, "text/plain", strings.NewReader(q.text))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	body := buf.Bytes()
	lines := bytes.SplitAfter(bytes.TrimRight(body, "\n"), []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("want at least two rows and a trailer, got %q", body)
	}
	rows, tr := lines[:len(lines)-1], lines[len(lines)-1]
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	swapped := append([][]byte{rows[1], rows[0]}, rows[2:]...)

	verdict := func(body []byte, ordered bool) error {
		r, err := parseResponse(body)
		if err != nil {
			return err
		}
		return check(r, query{text: q.text, ordered: ordered}, l.refs[0])
	}
	if err := verdict(body, true); err != nil {
		t.Fatalf("untouched body rejected: %v", err)
	}
	if err := verdict(append(join(swapped...), tr...), true); err == nil {
		t.Error("reordered rows of an ordered result accepted")
	}
	if err := verdict(append(join(swapped...), tr...), false); err != nil {
		t.Errorf("reordered rows of an unordered result rejected: %v", err)
	}
	changed := bytes.Replace(body, []byte(`"count":`), []byte(`"count":1`), 1)
	if err := verdict(changed, true); err == nil {
		t.Error("changed value accepted")
	}
	short := bytes.Replace(tr, []byte(`"rows":`), []byte(`"rows":1`), 1)
	if err := verdict(append(join(rows...), short...), true); err == nil {
		t.Error("trailer row count that disagrees with the body accepted")
	}
	failed := bytes.Replace(tr, []byte(`"status":"ok"`), []byte(`"status":"error"`), 1)
	if err := verdict(append(join(rows...), failed...), true); err == nil {
		t.Error("error status accepted")
	}
}

func TestWholeCycles(t *testing.T) {
	for _, name := range []string{"point-lookup", "join-agg", "sort-spill"} {
		for _, traced := range []bool{false, true} {
			l := tinyLoop(t, name)
			if traced {
				l.spans = newSpanLog()
				l.runID = "test"
			}
			samples, _ := l.run(30*time.Millisecond, traced)
			unit := 1
			if traced {
				unit = 2 // one untraced and one traced cycle
			}
			for c, cs := range samples {
				n := len(l.w.cycles[c])
				if len(cs) == 0 || len(cs)%(unit*n) != 0 {
					t.Errorf("%s traced=%v client %d: %d requests, not whole cycles of %d", name, traced, c, len(cs), unit*n)
				}
				tagged := 0
				for _, s := range cs {
					if !s.ok {
						t.Fatalf("%s: %q: %s", name, l.w.queries[s.query].text, s.err)
					}
					if s.traced {
						tagged++
						if s.tr == nil || s.tr.Analyze == "" {
							t.Fatalf("%s: traced request without an analyzed trailer", name)
						}
					}
				}
				if traced && 2*tagged != len(cs) {
					t.Errorf("%s client %d: %d of %d requests traced, want half", name, c, tagged, len(cs))
				}
			}
			if traced {
				var all []sample
				for _, cs := range samples {
					all = append(all, cs...)
				}
				if _, err := layerMetrics(all, nil, nil, 0); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				if len(l.spans.spans) == 0 {
					t.Errorf("%s: no spans recorded", name)
				}
			}
		}
	}
}

func TestSameSeedSameWorkload(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 3, fullData)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(name, 3, fullData)
		c, _ := buildWorkload(name, 4, fullData)
		if a.distinctTexts()[0] != b.distinctTexts()[0] {
			t.Errorf("%s: same seed, different requests", name)
		}
		if name != "sort-spill" && strings.Join(a.distinctTexts(), "|") == strings.Join(c.distinctTexts(), "|") {
			t.Errorf("%s: seeds 3 and 4 draw the same requests", name)
		}
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	a := savedResult{Host: hostTag{CPU: "x", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1"}, Workload: "join-agg",
		Result: result{Metrics: map[string]metric{"p50_ms": {Value: 10, Unit: "ms"}}}}
	b := a
	b.Host.Commit = "other"
	var out bytes.Buffer
	if err := compare(&out, a, b); err != nil || !strings.Contains(out.String(), "p50_ms") {
		t.Fatalf("same host: %v %q", err, out.String())
	}
	b.Host.NProc = 8
	if err := compare(&out, a, b); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("different hosts compared: %v", err)
	}
}

func TestParseAnalyze(t *testing.T) {
	report := `query q1
sort dname asc  [rows=3 calls=4 opens=1 open=10ms next=1ms close=0s]
  aggregate group=[2] count($0) [hash]  [rows=3 calls=4 opens=1 open=9ms next=0s close=0s]
    exchange producers=2 consumers=1 packet=83  [rows=100 calls=101 opens=1 open=0s next=8ms close=0s]
      {packets=4 records=100 forks=2 pool=3h/1m/0d stall=2ms wait=5ms}
      pscan emp [2 partitions]  [rows=100 calls=102 opens=2 open=0s next=6ms close=0s]
buffer: fixes=1 hits=1 misses=0 reads=0 writes=0 extra-pins=0 (pins balanced)
`
	got, err := parseAnalyze(report)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{"sort": 2 * time.Millisecond, "agg": time.Millisecond, "exchange": 3 * time.Millisecond, "scan": 6 * time.Millisecond}
	for op, d := range want {
		if got.self[op] != d {
			t.Errorf("self[%s] = %v, want %v", op, got.self[op], d)
		}
	}
	if got.rowsIn["agg"] != 100 || got.rowsIn["scan"] != 100 || got.rowsIn["sort"] != 3 {
		t.Errorf("rows in = %v", got.rowsIn)
	}
	if got.packets != 4 || got.poolHits != 3 || got.poolMisses != 1 || got.wait != 5*time.Millisecond || got.stall != 2*time.Millisecond {
		t.Errorf("exchange totals = %+v", got)
	}
}

func TestDropKnobs(t *testing.T) {
	in := "pscan emp 4 | filter salary > 5 | exchange producers=4 packet=83 | agg group dept compute count"
	want := "pscan emp 4 | filter salary > 5 | exchange | agg group dept compute count"
	if got := dropKnobs(in); got != want {
		t.Errorf("dropKnobs = %q, want %q", got, want)
	}
}

func TestEndToEndUsesLeastStolenWindows(t *testing.T) {
	win := func(lat time.Duration, stolen float64) window {
		w := window{wall: time.Second, cpu: 10 * time.Millisecond, alloc: 2048, stolen: stolen, ticks: 100}
		for i := 0; i < 10; i++ {
			w.samples = append(w.samples, sample{ok: true, latency: lat})
		}
		return w
	}
	// Three quiet windows at 1ms, three stolen ones at 9ms.
	wins := []window{win(9*time.Millisecond, 30), win(time.Millisecond, 0), win(9*time.Millisecond, 20),
		win(time.Millisecond, 1), win(time.Millisecond, 2), win(9*time.Millisecond, 10)}
	wins[5].hwmKB = 2048
	m := endToEnd(wins)
	for name, want := range map[string]float64{"p50_ms": 1, "p90_ms": 1, "qps": 10, "cpu_ms_per_query": 1, "alloc_kb_per_query": 0.2, "max_rss_mb": 2} {
		if got := m[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
