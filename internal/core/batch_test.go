package core

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/record"
)

// Metamorphic property of the batch protocol: the batch size is an
// execution parameter, never a semantic one. Every operator must produce
// the same result set at batch size 1, 2, 7 and the default window as it
// does record-at-a-time, and size 1 must match the row-at-a-time shim
// call for call. These tests drive the operators directly (the plan-level
// differential harness covers whole trees).

// metaBatchSizes: the degenerate size, the smallest non-trivial size, a
// prime that forces partial final batches, and the default window.
var metaBatchSizes = []int{1, 2, 7, DefaultBatchSize}

// renderRows canonicalises decoded rows for order-insensitive comparison.
func renderRows(rows [][]record.Value) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		out[i] = strings.Join(cells, "\x1f")
	}
	sort.Strings(out)
	return out
}

// enableAll switches it (and nothing else — makers enable their inputs
// themselves when they want deeper coverage) to batch-consume mode.
func enableAll(it Iterator, size int) {
	if bc, ok := it.(BatchConfigurable); ok && size > 0 {
		bc.EnableBatch(size)
	}
}

func TestBatchSizeMetamorphic(t *testing.T) {
	env := newTestEnv(t, 1024)
	ints := env.makeInts(t, "ints", shuffled(500, 41)...)
	emp := env.makeEmp(t, "emp", 100, 4)
	left := env.makePairs(t, "left", func() [][2]int64 {
		var ps [][2]int64
		for i := int64(0); i < 60; i++ {
			ps = append(ps, [2]int64{i % 7, i})
		}
		return ps
	}())
	right := env.makePairs(t, "right", func() [][2]int64 {
		var ps [][2]int64
		for i := int64(0); i < 40; i++ {
			ps = append(ps, [2]int64{i % 5, 100 + i})
		}
		return ps
	}())

	// Each maker builds a fresh operator (iterators are single-use) wired
	// for the given batch size; size 0 means classic row mode.
	cases := []struct {
		name string
		mk   func(size int) (Iterator, error)
	}{
		{"filescan", func(int) (Iterator, error) {
			return NewFileScan(ints, nil)
		}},
		{"filter", func(size int) (Iterator, error) {
			f, err := NewFilterExpr(scanOf(t, ints), "v % 3 = 1", expr.Compiled)
			if err == nil {
				enableAll(f, size)
			}
			return f, err
		}},
		{"project", func(size int) (Iterator, error) {
			p, err := NewProjectExprs(env.Env, scanOf(t, ints), []string{"v * 2 + 1"}, []string{"x"}, expr.Interpreted)
			if err == nil {
				enableAll(p, size)
			}
			return p, err
		}},
		{"sort", func(size int) (Iterator, error) {
			s := NewSort(env.Env, scanOf(t, ints), []record.SortSpec{{Field: 0, Desc: true}})
			enableAll(s, size)
			return s, nil
		}},
		{"hash-aggregate", func(size int) (Iterator, error) {
			a, err := NewHashAggregate(env.Env, scanOf(t, emp), record.Key{1}, []AggSpec{
				{Func: AggCount, Name: "n"}, {Func: AggSum, Field: 2, Name: "s"}, {Func: AggMax, Field: 0, Name: "m"},
			})
			if err == nil {
				enableAll(a, size)
			}
			return a, err
		}},
		{"sort-aggregate", func(size int) (Iterator, error) {
			a, err := NewSortAggregate(env.Env, scanOf(t, emp), record.Key{1}, []AggSpec{
				{Func: AggCount, Name: "n"}, {Func: AggAvg, Field: 2, Name: "a"}, {Func: AggMin, Field: 0, Name: "m"},
			})
			if err == nil {
				enableAll(a, size)
			}
			return a, err
		}},
		{"hash-match", func(size int) (Iterator, error) {
			m, err := NewHashMatch(env.Env, MatchJoin, scanOf(t, left), scanOf(t, right), record.Key{0}, record.Key{0})
			if err == nil {
				enableAll(m, size)
			}
			return m, err
		}},
		{"merge-match", func(size int) (Iterator, error) {
			m, err := NewMergeMatch(env.Env, MatchJoin, scanOf(t, left), scanOf(t, right), record.Key{0}, record.Key{0})
			if err == nil {
				enableAll(m, size)
			}
			return m, err
		}},
		{"hash-division", func(size int) (Iterator, error) {
			// No native NextBatch: proves the row→batch shim conforms.
			enr := env.makePairs(t, "enr"+string(rune('a'+size%32)), [][2]int64{
				{1, 1}, {1, 2}, {2, 1}, {3, 1}, {3, 2}, {4, 2},
			})
			req := env.makeInts(t, "req"+string(rune('a'+size%32)), 1, 2)
			return NewHashDivision(env.Env, scanOf(t, enr), scanOf(t, req), record.Key{0}, record.Key{1}, record.Key{0})
		}},
		{"choose-plan", func(size int) (Iterator, error) {
			alts := make([]Iterator, 2)
			for i := range alts {
				f, err := NewFilterExpr(scanOf(t, ints), "v < 100", expr.Interpreted)
				if err != nil {
					return nil, err
				}
				enableAll(f, size)
				alts[i] = f
			}
			return NewChoosePlan(alts, func() (int, error) { return 1, nil })
		}},
		{"exchange", func(size int) (Iterator, error) {
			x, err := NewExchange(ExchangeConfig{
				Schema:      intSchema,
				Producers:   3,
				Consumers:   1,
				PacketSize:  5,
				FlowControl: true,
				Slack:       2,
				BatchSize:   size,
				NewProducer: func(g int) (Iterator, error) { return NewFileScan(ints, nil) },
			})
			if err != nil {
				return nil, err
			}
			return x.Consumer(0), nil
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			live := batchesLive.Load()
			ref, err := tc.mk(0)
			if err != nil {
				t.Fatal(err)
			}
			rowRows, err := Collect(ref)
			if err != nil {
				t.Fatalf("row mode: %v", err)
			}
			if len(rowRows) == 0 {
				t.Fatal("row mode produced no rows — case is vacuous")
			}
			want := renderRows(rowRows)
			for _, size := range metaBatchSizes {
				it, err := tc.mk(size)
				if err != nil {
					t.Fatal(err)
				}
				batchRows, err := CollectBatch(it, size)
				if err != nil {
					t.Fatalf("batch size %d: %v", size, err)
				}
				got := renderRows(batchRows)
				if len(got) != len(want) {
					t.Fatalf("batch size %d: %d rows, row mode gave %d", size, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("batch size %d: row %d differs:\n got %q\nwant %q", size, i, got[i], want[i])
					}
				}
			}
			if got := batchesLive.Load(); got != live {
				t.Fatalf("%d batches drawn from the store were not recycled exactly once", got-live)
			}
			env.checkNoPinLeak(t)
		})
	}
}

// TestBatchSizeOneMatchesRowShim drives a native NextBatch implementation
// at size 1 against the row-at-a-time shim over an identical operator:
// the sequences must agree refill for refill — same record payload, same
// order, same end of stream. The native side is an exchange consumer
// lending one-record packets; one producer over a sort keeps the order
// deterministic.
func TestBatchSizeOneMatchesRowShim(t *testing.T) {
	env := newTestEnv(t, 512)
	ints := env.makeInts(t, "ints", shuffled(300, 42)...)

	mk := func() BatchIterator {
		x, err := NewExchange(ExchangeConfig{
			Schema:     intSchema,
			Producers:  1,
			Consumers:  1,
			PacketSize: 1,
			NewProducer: func(int) (Iterator, error) {
				return NewSort(env.Env, scanOf(t, ints), []record.SortSpec{{Field: 0}}), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return x.Consumer(0).(BatchIterator)
	}
	native := mk()
	shim := &rowBatcher{Iterator: mk()}
	if err := native.Open(); err != nil {
		t.Fatal(err)
	}
	if err := shim.Open(); err != nil {
		t.Fatal(err)
	}
	nb, sb := NewBatch(1), NewBatch(1)
	defer Recycle(nb)
	defer Recycle(sb)
	for step := 0; ; step++ {
		if err := native.NextBatch(nb); err != nil {
			t.Fatalf("step %d: native: %v", step, err)
		}
		if err := shim.NextBatch(sb); err != nil {
			t.Fatalf("step %d: shim: %v", step, err)
		}
		if nb.Len() != sb.Len() {
			t.Fatalf("step %d: native returned %d records, shim %d", step, nb.Len(), sb.Len())
		}
		if nb.Len() == 0 {
			break
		}
		for i := range nb.Recs() {
			if string(nb.Recs()[i].Data) != string(sb.Recs()[i].Data) {
				t.Fatalf("step %d record %d: native %x, shim %x", step, i, nb.Recs()[i].Data, sb.Recs()[i].Data)
			}
		}
		nb.Release()
		sb.Release()
	}
	if err := native.Close(); err != nil {
		t.Fatal(err)
	}
	if err := shim.Close(); err != nil {
		t.Fatal(err)
	}
	env.checkNoPinLeak(t)
}

// TestExchangeConsumerNextBatchZeroAlloc is the batch-mode counterpart of
// TestExchangeConsumerNextZeroAlloc: with a zero-alloc source, batch-mode
// producers pulling through a batch from the store, and packet lending
// on the consumer side, the steady-state NextBatch cycle must not
// allocate at all — per *batch*, not just per record.
func TestExchangeConsumerNextBatchZeroAlloc(t *testing.T) {
	done := make(chan struct{})
	x, err := NewExchange(ExchangeConfig{
		Schema:      intSchema,
		Producers:   1,
		Consumers:   1,
		PacketSize:  83,
		FlowControl: true,
		Slack:       4,
		BatchSize:   83,
		Done:        done,
		NewProducer: func(g int) (Iterator, error) { return &staticSource{rec: staticIntRec()}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	c := x.Consumer(0)
	bi, ok := c.(BatchIterator)
	if !ok {
		t.Fatal("exchange consumer does not implement NextBatch natively")
	}
	if err := c.Open(); err != nil {
		t.Fatal(err)
	}
	b := NewBatch(83)
	defer Recycle(b)
	pull := func() {
		if err := bi.NextBatch(b); err != nil {
			t.Fatalf("nextbatch: %v", err)
		}
		if b.Len() == 0 {
			t.Fatal("unexpected end of stream")
		}
		b.Release() // static records carry no pins; Release must stay alloc-free
	}
	// Warm the packet pool and reach steady state.
	for i := 0; i < 500; i++ {
		pull()
	}
	const perRun = 100
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < perRun; i++ {
			pull()
		}
	})
	if perBatch := avg / perRun; perBatch > 0.01 {
		t.Fatalf("consumer NextBatch allocates %.4f objects per batch (%.1f per run), want 0 amortised", perBatch, avg)
	}
	close(done)
	for {
		if err := bi.NextBatch(b); err != nil || b.Len() == 0 {
			break
		}
		b.Release()
	}
	if err := c.Close(); err != nil && !errors.Is(err, ErrCanceled) {
		t.Fatalf("close: %v", err)
	}
}

// TestRecycleDropsRecordsAndReturnsLentPacket pins the store's hand-back
// rules: a recycled batch keeps no record references anywhere in its
// storage, and recycling a batch that serves a lent packet returns the
// packet to its packet pool, cleared, so the pool's gets stay paired with
// returns. No other goroutine draws from the store while this runs, so
// the recycled batch can be inspected afterwards.
func TestRecycleDropsRecordsAndReturnsLentPacket(t *testing.T) {
	rec := staticIntRec()
	b := NewBatch(8)
	for !b.Full() {
		b.Append(rec)
	}
	own := b.own[:cap(b.own)]
	Recycle(b)
	for i, r := range own {
		if r.Data != nil {
			t.Fatalf("recycled batch slot %d still references a record", i)
		}
	}

	pool := newPacketPool(1, 1, 1, 8)
	p := pool.get(0)
	for len(p.recs) < 8 {
		p.recs = append(p.recs, rec)
	}
	b = NewBatch(8)
	b.lend(p, pool)
	Recycle(b)
	if b.lent != nil || b.Len() != 0 {
		t.Fatalf("recycled batch still serves a packet (%d records)", b.Len())
	}
	if len(pool.free) != 1 {
		t.Fatalf("packet pool holds %d packets after recycle, want the lent one back", len(pool.free))
	}
	for i, r := range p.recs[:cap(p.recs)] {
		if r.Data != nil {
			t.Fatalf("returned packet slot %d still references a record", i)
		}
	}
	if hits, misses, discards := pool.stats(); hits+misses != 1 || discards != 0 {
		t.Fatalf("pool gets %d/%d discards %d, want exactly one get and no discard", hits, misses, discards)
	}
}

// packetsHome reports whether every packet x's pool ever allocated is back
// in its free list or was dropped: the pool-side half of the get/put
// pairing, checked once every endpoint has closed.
func packetsHome(x *Exchange) bool {
	_, misses, discards := x.pool.stats()
	return misses == int64(len(x.pool.free))+discards
}

// TestBatchRecycleShutdownStress drives batch-mode producers and
// batch-draining consumers through both ways a query abandons an
// exchange: one of two consumers closing early mid-stream, and Done
// closing under running producers. Under -race this proves the
// exclusive-owner rule of the batch store and the consumer-side packet
// lending survive concurrent teardown; afterwards every batch drawn from
// the store has been recycled exactly once, every packet is home, and no
// pin leaks.
func TestBatchRecycleShutdownStress(t *testing.T) {
	env := newTestEnv(t, 2048)
	f := env.makeInts(t, "t", shuffled(2000, 43)...)
	iters := 30
	if testing.Short() {
		iters = 6
	}
	for iter := 0; iter < iters; iter++ {
		cancel := iter%2 == 1
		live := batchesLive.Load()
		done := make(chan struct{})
		var stop sync.Once
		x, err := NewExchange(ExchangeConfig{
			Schema:      intSchema,
			Producers:   4,
			Consumers:   2,
			PacketSize:  3,
			FlowControl: true,
			Slack:       1,
			BatchSize:   5,
			Done:        done,
			NewProducer: func(g int) (Iterator, error) { return NewFileScan(f, nil) },
		})
		if err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, 2)
		var wg sync.WaitGroup
		for ci := 0; ci < 2; ci++ {
			wg.Add(1)
			go func(ci, iter int) {
				defer wg.Done()
				c := x.Consumer(ci)
				if err := c.Open(); err != nil {
					errs <- err
					return
				}
				src := AsBatch(c)
				b := NewBatch(5)
				defer Recycle(b)
				// Consumer 0 acts at a varying point mid-stream: it walks
				// away, or it cancels the query and reads on to the end.
				limit := -1
				if ci == 0 {
					limit = 5 * (iter%7 + 1)
				}
				got := 0
				for {
					if limit >= 0 && got >= limit {
						if !cancel {
							break
						}
						stop.Do(func() { close(done) })
					}
					err := src.NextBatch(b)
					if err != nil && !errors.Is(err, ErrCanceled) {
						errs <- err
						return
					}
					if err != nil || b.Len() == 0 {
						break
					}
					got += b.Len()
					b.Release()
				}
				if err := c.Close(); err != nil && !(cancel && errors.Is(err, ErrCanceled)) {
					errs <- err
					return
				}
				errs <- nil
			}(ci, iter)
		}
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(20 * time.Second):
			t.Fatalf("iter %d: shutdown hung", iter)
		}
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
		}
		if got := batchesLive.Load(); got != live {
			t.Fatalf("iter %d: %d batches were not recycled exactly once", iter, got-live)
		}
		if !packetsHome(x) {
			t.Fatalf("iter %d: exchange packets missing from the pool: %+v", iter, x.Stats())
		}
		env.checkNoPinLeak(t)
	}
}
