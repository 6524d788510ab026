package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/record"
	"repro/internal/trace"
)

// OpStats holds one operator's runtime counters. All fields are atomic so
// one OpStats value can be shared by the parallel instances of a plan node
// — the per-producer subtrees an exchange instantiates — and updated
// concurrently without coordination beyond the counter itself.
//
// Rows and NextCalls are exact once every instance has reached end of
// stream or closed; while a query runs they lag by fewer than
// publishEvery calls per instance (see Instrumented). NextNanos is an
// unbiased estimate built from sampled Next timings.
type OpStats struct {
	Rows      atomic.Int64 // records returned by Next
	NextCalls atomic.Int64 // Next invocations (including the EOS call)
	Opens     atomic.Int64 // Open invocations (parallel instances add up)
	Closes    atomic.Int64 // Close invocations

	OpenNanos  atomic.Int64 // wall time inside Open
	NextNanos  atomic.Int64 // estimated cumulative wall time inside Next
	CloseNanos atomic.Int64 // wall time inside Close
}

// OpStatsSnapshot is a plain-value copy of an OpStats, safe to compare,
// print and store after the query has finished — and, because every
// OpStats field is atomic, equally safe to take mid-flight: a live
// observability view (the serving layer's /debug/queries) snapshots the
// operators of a running query with the same call. The JSON tags are the
// wire shape of that view; durations marshal as nanosecond integers.
type OpStatsSnapshot struct {
	Rows      int64         `json:"rows"`
	NextCalls int64         `json:"calls"`
	Opens     int64         `json:"opens"`
	Closes    int64         `json:"closes"`
	OpenTime  time.Duration `json:"open_ns"`
	NextTime  time.Duration `json:"next_ns"`
	CloseTime time.Duration `json:"close_ns"`
}

// Snapshot reads all counters.
func (s *OpStats) Snapshot() OpStatsSnapshot {
	return OpStatsSnapshot{
		Rows:      s.Rows.Load(),
		NextCalls: s.NextCalls.Load(),
		Opens:     s.Opens.Load(),
		Closes:    s.Closes.Load(),
		OpenTime:  time.Duration(s.OpenNanos.Load()),
		NextTime:  time.Duration(s.NextNanos.Load()),
		CloseTime: time.Duration(s.CloseNanos.Load()),
	}
}

// String renders the snapshot in the compact form used by EXPLAIN ANALYZE.
func (s OpStatsSnapshot) String() string {
	return fmt.Sprintf("rows=%d calls=%d opens=%d open=%v next=%v close=%v",
		s.Rows, s.NextCalls, s.Opens,
		s.OpenTime.Round(time.Microsecond),
		s.NextTime.Round(time.Microsecond),
		s.CloseTime.Round(time.Microsecond))
}

// Instrumented is the instrumentation adapter: a plain iterator that
// forwards to an inner iterator while counting rows, calls and wall time.
// Because it is itself an iterator it composes with everything else —
// including exchange, whose producer subtrees may each carry their own
// wrapper updating one shared OpStats.
//
// The uninstrumented path pays nothing: plans built without analysis never
// allocate or touch an Instrumented. The instrumented path is built to be
// left on, so Next pays no clock read and no shared-memory write on most
// calls:
//
//   - One goroutine drives a wrapper, so Next counts rows, calls and
//     time in plain fields and adds them to the shared OpStats every
//     publishEvery calls, on the end-of-stream (or failed) call and in
//     Close. Final counts are exact; a live view lags by fewer than
//     publishEvery calls per parallel instance.
//   - The first exactNexts calls after Open are timed exactly, so short
//     streams stay fully timed and a heavy first call (a sort's merge,
//     an exchange's first wait) is never scaled. After that each call is
//     timed with probability 1/sampleEvery and counts sampleEvery times
//     its duration, which keeps NextNanos an unbiased estimate. Only
//     timed calls feed the histogram.
//   - NextBatch, Open and Close are always timed exactly.
//
// With a tracer attached (WithTracer) the wrapper additionally records
// its Open, Next and Close calls as spans on a private trace track. Each
// Next call is then a span, so every call is timed; the spans reuse the
// measurements taken for OpStats, and a nil tracer costs one branch.
type Instrumented struct {
	inner Iterator
	name  string
	st    *OpStats

	tracer    *trace.Tracer
	tk        *trace.Track
	openName  string
	closeName string

	// hist, when attached, receives every timed Next duration so a
	// scraper (or EXPLAIN ANALYZE) can report latency quantiles, not just
	// totals. The nil histogram costs one branch, like the nil tracer.
	hist *metrics.Histogram

	// bin caches the inner iterator's batch face so NextBatch forwarding
	// does not re-wrap per call.
	bin BatchIterator

	// Owner-local state of the Next path: calls since Open, the sampling
	// generator, and the counts not yet added to st.
	nexts     int64
	rng       uint64
	pendCalls int64
	pendRows  int64
	pendNanos int64
}

// Constants of the Next path. They are fixed, not tuned per plan: the
// analyzed-over-plain gate (BenchmarkAnalyzeOverhead) is measured with
// these values.
const (
	// publishEvery is how many Next calls a wrapper counts locally before
	// it adds them to the shared OpStats.
	publishEvery = 64
	// exactNexts is how many Next calls after Open are always timed.
	exactNexts = 16
	// sampleEvery is the inverse sampling rate after the exact prefix:
	// each call is timed with probability 1/sampleEvery and stands for
	// sampleEvery calls.
	sampleEvery = 16
)

// Instrument wraps it with a fresh, private OpStats.
func Instrument(it Iterator, name string) *Instrumented {
	return InstrumentWith(it, name, &OpStats{})
}

// InstrumentWith wraps it updating the given (possibly shared) OpStats.
func InstrumentWith(it Iterator, name string, st *OpStats) *Instrumented {
	return &Instrumented{inner: it, name: name, st: st}
}

// WithTracer attaches a tracer: the wrapper's calls become spans on a
// track registered at first Open (in the goroutine that runs the
// operator, so parallel instances get one track each). Returns i.
func (i *Instrumented) WithTracer(t *trace.Tracer) *Instrumented {
	i.tracer = t
	return i
}

// WithHistogram attaches a latency histogram fed one observation per
// timed Next call, reusing the wall-time measurement the wrapper already
// takes. Sibling wrappers of parallel instances may share one
// histogram; Observe is atomic. Returns i.
func (i *Instrumented) WithHistogram(h *metrics.Histogram) *Instrumented {
	i.hist = h
	return i
}

// Histogram returns the attached latency histogram (nil when none).
func (i *Instrumented) Histogram() *metrics.Histogram { return i.hist }

// Name returns the label given at wrap time.
func (i *Instrumented) Name() string { return i.name }

// Stats returns the live counters (shared with any sibling wrappers).
func (i *Instrumented) Stats() *OpStats { return i.st }

// Unwrap returns the iterator being observed.
func (i *Instrumented) Unwrap() Iterator { return i.inner }

// Schema implements Iterator.
func (i *Instrumented) Schema() *record.Schema { return i.inner.Schema() }

// Open implements Iterator.
func (i *Instrumented) Open() error {
	if i.tracer.Enabled() && i.tk == nil {
		i.tk = i.tracer.NewTrack("op:" + i.name)
		i.openName = i.name + ".open"
		i.closeName = i.name + ".close"
	}
	i.nexts = 0
	start := time.Now()
	err := i.inner.Open()
	d := time.Since(start)
	i.st.OpenNanos.Add(int64(d))
	i.st.Opens.Add(1)
	i.tk.SpanAt("op", i.openName, start, d)
	return err
}

// Next implements Iterator.
func (i *Instrumented) Next() (r Rec, ok bool, err error) {
	i.nexts++
	if i.nexts <= exactNexts || i.tk != nil {
		return i.timedNext(1)
	}
	if i.sample() {
		return i.timedNext(sampleEvery)
	}
	r, ok, err = i.inner.Next()
	i.count(ok)
	return r, ok, err
}

// timedNext forwards one timed Next call; weight is the number of calls
// the measurement stands for.
func (i *Instrumented) timedNext(weight int64) (r Rec, ok bool, err error) {
	start := monoNow()
	r, ok, err = i.inner.Next()
	d := monoNow() - start
	i.pendNanos += weight * int64(d)
	i.hist.Observe(d)
	if i.tk != nil {
		i.tk.SpanAt("op", i.name, monoEpoch.Add(start), d)
	}
	i.count(ok)
	return r, ok, err
}

// monoEpoch anchors monoNow.
var monoEpoch = time.Now()

// monoNow reads only the monotonic clock, as an offset from monoEpoch:
// one clock read where time.Now takes two (it also reads the wall
// clock), which matters on hosts whose clock reads cost tens of
// nanoseconds.
func monoNow() time.Duration { return time.Since(monoEpoch) }

// sample draws whether this Next call is timed: true with probability
// 1/sampleEvery, from a per-wrapper xorshift generator. A random draw,
// unlike a fixed stride, cannot lock onto a periodic cost such as a page
// or packet boundary; the fixed seed keeps runs repeatable.
func (i *Instrumented) sample() bool {
	x := i.rng
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	i.rng = x
	return x>>60 == 0 // the top four bits: 1 in 16
}

// count tallies one Next call locally and publishes at the batch
// boundary and at the end of the stream (ok false: EOS or an error).
func (i *Instrumented) count(ok bool) {
	i.pendCalls++
	if ok {
		i.pendRows++
	}
	if !ok || i.pendCalls == publishEvery {
		i.publish()
	}
}

// publish adds the owner-local Next counts to the shared OpStats.
func (i *Instrumented) publish() {
	if i.pendCalls == 0 {
		return
	}
	i.st.NextCalls.Add(i.pendCalls)
	i.st.Rows.Add(i.pendRows)
	i.st.NextNanos.Add(i.pendNanos)
	i.pendCalls, i.pendRows, i.pendNanos = 0, 0, 0
}

// NextBatch implements BatchIterator: the wrapper times the whole batch
// call and counts every delivered record, so EXPLAIN ANALYZE row counts
// agree between modes while NextCalls reflects the amortisation.
func (i *Instrumented) NextBatch(b *Batch) error {
	if i.bin == nil {
		i.bin = AsBatch(i.inner)
	}
	start := time.Now()
	err := i.bin.NextBatch(b)
	d := time.Since(start)
	i.st.NextNanos.Add(int64(d))
	i.st.NextCalls.Add(1)
	i.st.Rows.Add(int64(b.Len()))
	i.hist.Observe(d)
	i.tk.SpanAt("op", i.name, start, d)
	return err
}

// EnableBatch implements BatchConfigurable by forwarding to the wrapped
// operator, so instrumented builds batch exactly like plain ones.
func (i *Instrumented) EnableBatch(size int) {
	if bc, ok := i.inner.(BatchConfigurable); ok {
		bc.EnableBatch(size)
	}
}

// Close implements Iterator.
func (i *Instrumented) Close() error {
	i.publish()
	start := time.Now()
	err := i.inner.Close()
	d := time.Since(start)
	i.st.CloseNanos.Add(int64(d))
	i.st.Closes.Add(1)
	i.tk.SpanAt("op", i.closeName, start, d)
	return err
}
