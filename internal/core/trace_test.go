package core

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/record"
	"repro/internal/trace"
)

// traceNames flattens a tracer's snapshot into the set of event names and
// the per-name count.
func traceNames(tr *trace.Tracer) map[string]int {
	names := map[string]int{}
	for _, s := range tr.Snapshot() {
		for _, e := range s.Events {
			names[e.Name]++
		}
	}
	return names
}

// TestExchangeTraceProtocol runs a traced parallel exchange with a tight
// flow-control window and checks the whole protocol vocabulary shows up:
// spawn, producer starts, packet flows, token waits, EOS tags, and the
// shutdown handshake.
func TestExchangeTraceProtocol(t *testing.T) {
	env := newTestEnv(t, 256)
	f := env.makeInts(t, "t", shuffled(500, 7)...)
	tr := trace.New()
	x, err := NewExchange(ExchangeConfig{
		Schema:      intSchema,
		Producers:   2,
		Consumers:   1,
		PacketSize:  8,
		FlowControl: true,
		Slack:       1, // one token: producers must block, so token-wait spans appear
		Tracer:      tr,
		NewProducer: func(int) (Iterator, error) {
			return NewFileScan(f, nil)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(x.Consumer(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1000 {
		t.Fatalf("rows = %d", len(rows))
	}

	names := traceNames(tr)
	for _, want := range []string{
		"fork", "producer-start", "open-subtree", "produce",
		"push", "pop", "token-wait", "eos",
		"await-close", "allow-close", "await-producers", "close-subtree",
	} {
		if names[want] == 0 {
			t.Errorf("no %q event recorded; got %v", want, names)
		}
	}
	if names["producer-start"] != 2 {
		t.Errorf("producer-start count = %d, want 2", names["producer-start"])
	}

	// Each producer and the consumer own distinct tracks. (The exchange id
	// prefix varies across tests, so match on the suffix.)
	trackNames := map[string]bool{}
	for _, s := range tr.Snapshot() {
		trackNames[s.Name] = true
	}
	for _, want := range []string{".master", ".producer0", ".producer1", ".consumer0"} {
		found := false
		for n := range trackNames {
			if strings.HasSuffix(n, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no track ending in %q; have %v", want, trackNames)
		}
	}

	// Every flow arrow tail has a matching head with the same id.
	tails, heads := map[int64]int{}, map[int64]int{}
	for _, s := range tr.Snapshot() {
		for _, e := range s.Events {
			switch e.Ph {
			case trace.PhaseFlowStart:
				tails[e.ID]++
			case trace.PhaseFlowEnd:
				heads[e.ID]++
			}
		}
	}
	if len(tails) == 0 {
		t.Fatal("no flow arrows recorded")
	}
	for id := range tails {
		if heads[id] != 1 {
			t.Errorf("flow %d: %d heads, want 1", id, heads[id])
		}
	}
}

// TestExchangeTraceTreeFork checks the propagation-tree scheme records a
// fork on producer tracks (each non-leaf producer forks its successor),
// not only on the master.
func TestExchangeTraceTreeFork(t *testing.T) {
	env := newTestEnv(t, 256)
	f := env.makeInts(t, "t", shuffled(200, 9)...)
	tr := trace.New()
	x, err := NewExchange(ExchangeConfig{
		Schema:    intSchema,
		Producers: 4,
		Consumers: 1,
		Fork:      ForkTree,
		Tracer:    tr,
		NewProducer: func(int) (Iterator, error) {
			return NewFileScan(f, nil)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(x.Consumer(0)); err != nil {
		t.Fatal(err)
	}
	forksOnProducers := 0
	for _, s := range tr.Snapshot() {
		if !strings.Contains(s.Name, "producer") {
			continue
		}
		for _, e := range s.Events {
			if e.Name == "fork" {
				forksOnProducers++
			}
		}
	}
	if forksOnProducers == 0 {
		t.Error("propagation tree recorded no forks on producer tracks")
	}
}

// countRec is a no-allocation source for the overhead benchmark and test.
type countRec struct {
	n, limit int
}

func (c *countRec) Schema() *record.Schema { return intSchema }
func (c *countRec) Open() error            { c.n = 0; return nil }
func (c *countRec) Close() error           { return nil }
func (c *countRec) Next() (Rec, bool, error) {
	if c.n >= c.limit {
		return Rec{}, false, nil
	}
	c.n++
	return Rec{}, true, nil
}

// TestInstrumentedDisabledTracerNoAllocs pins the disabled-tracing cost on
// the instrumented Next hot path: zero allocations per call.
func TestInstrumentedDisabledTracerNoAllocs(t *testing.T) {
	it := Instrument(&countRec{limit: 1 << 30}, "src").WithTracer(nil)
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok, err := it.Next(); !ok || err != nil {
			t.Fatal("source ended")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled-tracer Next allocates %.1f per call, want 0", allocs)
	}
}

// BenchmarkInstrumentedNext measures the per-call cost of the instrumented
// hot path with tracing disabled (the mode every non-traced run pays).
func BenchmarkInstrumentedNext(b *testing.B) {
	it := Instrument(&countRec{limit: 1 << 62}, "src").WithTracer(nil)
	if err := it.Open(); err != nil {
		b.Fatal(err)
	}
	defer it.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.Next()
	}
}

// TestInstrumentedTraceSpans checks the enabled wrapper registers one
// track per operator and emits open/next/close spans on it. A traced
// wrapper times every Next call — each one is a span — so the stream is
// longer than the exact prefix and every call also reaches the
// histogram.
func TestInstrumentedTraceSpans(t *testing.T) {
	const rows = 10 * exactNexts
	tr := trace.New()
	h := metrics.NewHistogram(nil)
	it := Instrument(&countRec{limit: rows}, "src").WithTracer(tr).WithHistogram(h)
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok, err := it.Next(); err != nil || !ok {
			break
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	snaps := tr.Snapshot()
	if len(snaps) != 1 || snaps[0].Name != "op:src" {
		t.Fatalf("tracks = %+v", snaps)
	}
	names := traceNames(tr)
	if names["src.open"] != 1 || names["src.close"] != 1 {
		t.Errorf("open/close spans missing: %v", names)
	}
	if names["src"] != rows+1 { // rows + EOS call
		t.Errorf("next spans = %d, want %d", names["src"], rows+1)
	}
	if h.Count() != rows+1 {
		t.Errorf("histogram observed %d Next calls, want %d", h.Count(), rows+1)
	}
}
