package core

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/record"
)

// cycleSource hands out its records round robin, n in all, with zero
// allocations: a frameless input, like countedSource, that lets an
// allocation gate count only the operators above it.
type cycleSource struct {
	schema *record.Schema
	recs   []Rec
	n      int
	left   int
}

func (s *cycleSource) Schema() *record.Schema { return s.schema }
func (s *cycleSource) Open() error            { s.left = s.n; return nil }
func (s *cycleSource) Next() (Rec, bool, error) {
	if s.left == 0 {
		return Rec{}, false, nil
	}
	r := s.recs[(s.n-s.left)%len(s.recs)]
	s.left--
	return r, true, nil
}
func (s *cycleSource) Close() error { return nil }

var allocDeptSchema = record.MustSchema(
	record.Field{Name: "dno", Type: record.TInt},
	record.Field{Name: "dname", Type: record.TString},
)

// allocsPerInputRow runs build() to completion a few times and returns
// the allocations of one run divided by the rows its sources produce.
func allocsPerInputRow(t *testing.T, rows int, build func() Iterator) float64 {
	t.Helper()
	var runErr error
	n := testing.AllocsPerRun(3, func() {
		it := build()
		if err := it.Open(); err != nil {
			runErr = err
			return
		}
		for {
			r, ok, err := it.Next()
			if err != nil {
				runErr = err
				break
			}
			if !ok {
				break
			}
			r.Unfix()
		}
		if err := it.Close(); err != nil && runErr == nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return n / float64(rows)
}

// joinAggRows are the inputs of the filter → hash join → hash aggregate
// pipeline: 64 distinct emp records cycled as the probe side, one dept
// record per department as the build side.
func joinAggRows(depts int) (emp, dept []Rec) {
	emp = make([]Rec, 64)
	for i := range emp {
		emp[i] = Rec{Data: empSchema.MustEncode(record.Int(int64(i)), record.Int(int64(i%depts)),
			record.Float(1000+10*float64(i)), record.Str(fmt.Sprintf("emp-%d", i)))}
	}
	dept = make([]Rec, depts)
	for i := range dept {
		dept[i] = Rec{Data: allocDeptSchema.MustEncode(record.Int(int64(i)), record.Str(fmt.Sprintf("dept-%d", i)))}
	}
	return emp, dept
}

// joinAggPipeline builds filter → hash join → hash aggregate on a string
// group key over zero-allocation sources, probeRows probe records in
// all. wrap is applied to every operator as it is built, sources
// included, the way an analyzed plan build wraps each node; batch > 0
// switches the operators to the batch protocol.
func joinAggPipeline(t testing.TB, env *Env, emp, dept []Rec, probeRows, batch int, wrap func(Iterator, string) Iterator) Iterator {
	probe := wrap(&cycleSource{schema: empSchema, recs: emp, n: probeRows}, "scan")
	filter, err := NewFilterExpr(probe, "salary > 1100", expr.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	join, err := NewHashMatch(env, MatchJoin, wrap(filter, "filter"),
		wrap(&cycleSource{schema: allocDeptSchema, recs: dept, n: len(dept)}, "scan"), record.Key{1}, record.Key{0})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewHashAggregate(env, wrap(join, "join"), record.Key{5},
		[]AggSpec{{Func: AggCount}, {Func: AggAvg, Field: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if batch > 0 {
		filter.EnableBatch(batch)
		join.EnableBatch(batch)
		agg.EnableBatch(batch)
	}
	return wrap(agg, "agg")
}

// plainOp leaves an operator unwrapped.
func plainOp(it Iterator, _ string) Iterator { return it }

// analyzedOp wraps an operator as an analyzed plan build does: private
// counters and a latency histogram.
func analyzedOp(it Iterator, name string) Iterator {
	return Instrument(it, name).WithHistogram(metrics.NewHistogram(nil))
}

// TestAllocGateJoinAggregate is the allocation gate of the operators
// that create or key on records: filter → hash join → hash aggregate on
// a string group key, fed by zero-allocation sources. Join outputs are
// spliced from record images and groups are looked up by key bytes, so
// nothing is allocated per row: what remains is per run, per group and
// per page. The bound is a tenth of an allocation per input row, in row
// mode and in batch mode, so a single allocation reintroduced per row
// fails it.
func TestAllocGateJoinAggregate(t *testing.T) {
	const probeRows, depts = 20000, 8
	env := newTestEnv(t, 256)
	emp, dept := joinAggRows(depts)
	for _, batch := range []int{0, 83} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			per := allocsPerInputRow(t, probeRows+depts, func() Iterator {
				return joinAggPipeline(t, env.Env, emp, dept, probeRows, batch, plainOp)
			})
			t.Logf("%.3f allocs per input row", per)
			if per > 0.1 {
				t.Fatalf("filter → hash join → hash aggregate allocates %.3f per input row, want <= 0.1", per)
			}
		})
	}
	env.checkNoPinLeak(t)
}

// BenchmarkAnalyzeOverhead is the cost of always-on EXPLAIN ANALYZE on
// the ladder: the join+agg pipeline of TestAllocGateJoinAggregate in row
// mode, plain and with every operator wrapped as an analyzed build wraps
// it. Row mode is the case that matters, because there the wrapper runs
// once per record per operator. It reports ns/record per input record;
// CI fails when min(analyzed)/min(plain) over five runs exceeds 1.10.
func BenchmarkAnalyzeOverhead(b *testing.B) {
	const probeRows, depts = 20000, 8
	env := newTestEnv(b, 256)
	emp, dept := joinAggRows(depts)
	for _, v := range []struct {
		name string
		wrap func(Iterator, string) Iterator
	}{{"plain", plainOp}, {"analyzed", analyzedOp}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				it := joinAggPipeline(b, env.Env, emp, dept, probeRows, 0, v.wrap)
				rows, err := Drain(it)
				if err != nil {
					b.Fatal(err)
				}
				if rows != depts {
					b.Fatalf("pipeline returned %d groups, want %d", rows, depts)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(probeRows+depts)), "ns/record")
		})
	}
}

// TestAllocGateSortAggregate pins that sort-based aggregation allocates
// nothing per input row: the group change is found on key bytes, and the
// open group's buffers carry over from one group to the next. With the
// group count fixed, ten times the rows must not add allocations beyond
// noise.
func TestAllocGateSortAggregate(t *testing.T) {
	const groups = 50
	env := newTestEnv(t, 256)
	run := func(perGroup int) float64 {
		recs := make([]Rec, 0, groups*perGroup)
		for g := 0; g < groups; g++ {
			for i := 0; i < perGroup; i++ {
				recs = append(recs, Rec{Data: allocDeptSchema.MustEncode(record.Int(int64(i)),
					record.Str(fmt.Sprintf("group-%03d", g)))})
			}
		}
		rows := len(recs)
		per := allocsPerInputRow(t, rows, func() Iterator {
			agg, err := NewSortAggregate(env.Env, &cycleSource{schema: allocDeptSchema, recs: recs, n: rows},
				record.Key{1}, []AggSpec{{Func: AggCount}, {Func: AggSum, Field: 0},
					{Func: AggMin, Field: 0}, {Func: AggMax, Field: 0}})
			if err != nil {
				t.Fatal(err)
			}
			return agg
		})
		return per * float64(rows)
	}
	short, long := run(10), run(100)
	perRow := (long - short) / float64(groups*(100-10))
	t.Logf("%.0f allocs at 10 rows per group, %.0f at 100: %.4f per extra row", short, long, perRow)
	if perRow > 0.01 {
		t.Fatalf("SortAggregate allocates %.4f per input row beyond its per-group output", perRow)
	}
	env.checkNoPinLeak(t)
}
