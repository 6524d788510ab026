package core

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/record"
)

// nopIter yields nothing; it exists to measure the wrapper itself.
type nopIter struct{ schema *record.Schema }

func (n *nopIter) Open() error              { return nil }
func (n *nopIter) Next() (Rec, bool, error) { return Rec{}, true, nil }
func (n *nopIter) Close() error             { return nil }
func (n *nopIter) Schema() *record.Schema   { return n.schema }

// TestInstrumentedNextZeroAlloc pins the acceptance criterion: with
// metrics disabled (nil histogram, nil tracer) the instrumented Next
// path allocates nothing, and attaching a histogram still allocates
// nothing — Observe is atomic adds over preallocated buckets.
func TestInstrumentedNextZeroAlloc(t *testing.T) {
	bare := Instrument(&nopIter{}, "nop")
	if n := testing.AllocsPerRun(1000, func() {
		if _, _, err := bare.Next(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("disabled-metrics Next allocates %v per call", n)
	}

	withHist := Instrument(&nopIter{}, "nop").
		WithHistogram(metrics.NewRegistry().Histogram("volcano_op_next_seconds", "op latency", nil, metrics.Label{Key: "op", Value: "nop"}))
	if n := testing.AllocsPerRun(1000, func() {
		if _, _, err := withHist.Next(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("histogram-enabled Next allocates %v per call", n)
	}
}

// TestInstrumentedHistogramObserves checks the wiring: every timed Next
// call lands one observation, shared across sibling wrappers like
// OpStats. The first exactNexts calls after Open are all timed; after
// them a call is timed when the wrapper's sampler says so, about one in
// sampleEvery.
func TestInstrumentedHistogramObserves(t *testing.T) {
	const more = 100 * sampleEvery
	h := metrics.NewHistogram(nil)
	st := &OpStats{}
	a := InstrumentWith(&nopIter{}, "op", st).WithHistogram(h)
	b := InstrumentWith(&nopIter{}, "op", st).WithHistogram(h)
	for _, w := range []*Instrumented{a, b} {
		if err := w.Open(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < exactNexts+more; i++ {
		if _, _, err := a.Next(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, _, err := b.Next(); err != nil {
			t.Fatal(err)
		}
	}
	// Replay the sampler a fresh wrapper runs past its exact prefix.
	sampled := 0
	replay := &Instrumented{}
	for i := 0; i < more; i++ {
		if replay.sample() {
			sampled++
		}
	}
	if sampled < more/sampleEvery/2 || sampled > 2*more/sampleEvery {
		t.Fatalf("sampler timed %d of %d calls, want about 1 in %d", sampled, more, sampleEvery)
	}
	if want := int64(exactNexts + sampled + 3); h.Count() != want {
		t.Fatalf("histogram observed %d Next calls, want %d (%d exact + %d sampled on a, 3 exact on b)",
			h.Count(), want, exactNexts, sampled)
	}
	s := h.Snapshot()
	if s.Quantile(0.5) <= 0 {
		t.Fatal("median of real Next timings must be positive")
	}
	if a.Histogram() != h {
		t.Fatal("Histogram() accessor must return the attached histogram")
	}
	for _, w := range []*Instrumented{a, b} {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.NextCalls.Load(); got != exactNexts+more+3 {
		t.Fatalf("shared calls = %d, want %d: counts stay exact under sampling", got, exactNexts+more+3)
	}
}
