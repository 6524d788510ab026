package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/record"
	"repro/internal/storage/file"
)

// Flow control in merge mode: every producer stream draws on its own
// token semaphore, so a merge consumer waiting on one stream never starves
// while another stream's queued packets hold the tokens.

// mergeFlowExchange builds a KeepStreams+FlowControl exchange at slack 1
// over the given per-producer inputs and returns the hub and its merged
// output.
func mergeFlowExchange(t *testing.T, newProducer func(g int) (Iterator, error), producers, batch int, done <-chan struct{}) (*Exchange, Iterator) {
	t.Helper()
	x, err := NewExchange(ExchangeConfig{
		Schema:      intSchema,
		Producers:   producers,
		Consumers:   1,
		KeepStreams: true,
		FlowControl: true,
		Slack:       1,
		BatchSize:   batch,
		Done:        done,
		NewProducer: newProducer,
	})
	if err != nil {
		t.Fatal(err)
	}
	streams, err := x.ConsumerStreams(0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMergeSpec(streams, []record.SortSpec{{Field: 0}})
	if err != nil {
		t.Fatal(err)
	}
	return x, m
}

// withDeadline runs fn and fails the test with every goroutine's stack if
// it has not returned in time, so a flow-control deadlock fails instead
// of hanging the suite.
func withDeadline(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		fn()
	}()
	select {
	case <-finished:
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		t.Fatalf("did not finish within %v\n%s", d, buf[:runtime.Stack(buf, true)])
	}
}

func TestQueueKeepStreamsPerStreamTokens(t *testing.T) {
	q := newQueue(2, true, true, 1, &portStats{}, newPacketPool(2, 1, 1, 8))
	q.push(&packet{producer: 0}, nil) // takes stream 0's only token
	blocked := make(chan struct{})
	go func() {
		q.push(&packet{producer: 0}, nil)
		close(blocked)
	}()
	// Stream 1 has its own token: its producer is not throttled by stream
	// 0's backlog.
	withDeadline(t, 5*time.Second, func() { q.push(&packet{producer: 1}, nil) })
	select {
	case <-blocked:
		t.Fatal("stream 0 pushed beyond its slack")
	case <-time.After(20 * time.Millisecond):
	}
	// Popping stream 1 returns stream 1's token, not stream 0's.
	if p := q.popFrom(1, nil); p == nil || p.producer != 1 {
		t.Fatalf("popFrom(1) = %+v", p)
	}
	select {
	case <-blocked:
		t.Fatal("stream 1's token released stream 0")
	case <-time.After(20 * time.Millisecond):
	}
	if p := q.popFrom(0, nil); p == nil || p.producer != 0 {
		t.Fatalf("popFrom(0) = %+v", p)
	}
	withDeadline(t, 5*time.Second, func() { <-blocked })
}

// TestMergeFlowControlSlackOne merges four range-partitioned producer
// streams of 50,000 records at slack 1: the merge drains stream 0 before
// it reads anything else. With one semaphore shared by all streams the
// other streams' queued packets take the tokens and the merge deadlocks;
// with one per stream it finishes in order.
func TestMergeFlowControlSlackOne(t *testing.T) {
	const n, producers = 50_000, 4
	env := newTestEnv(t, 1024)
	files := make([]*file.File, producers)
	for p := range files {
		vals := make([]int64, n/producers)
		for i := range vals {
			vals[i] = int64(p*n/producers + i)
		}
		files[p] = env.makeInts(t, fmt.Sprintf("m%d", p), vals...)
	}
	for _, batch := range []int{0, 83} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			_, m := mergeFlowExchange(t, func(g int) (Iterator, error) { return NewFileScan(files[g], nil) }, producers, batch, nil)
			var rows [][]record.Value
			var err error
			withDeadline(t, 60*time.Second, func() {
				if batch > 0 {
					rows, err = CollectBatch(m, batch)
				} else {
					rows, err = Collect(m)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != n {
				t.Fatalf("got %d rows, want %d", len(rows), n)
			}
			for i, v := range intsOf(rows, 0) {
				if v != int64(i) {
					t.Fatalf("merge broke order at %d: %d", i, v)
				}
			}
			env.checkNoPinLeak(t)
		})
	}
}

// TestMergeFlowControlShutdown ends a merge-mode exchange while its
// producers are blocked on their per-stream tokens — by an early Close
// over finite inputs, and by Done followed by Close over endless ones —
// and checks that the teardown leaves no pin and no live producer
// goroutine behind.
func TestMergeFlowControlShutdown(t *testing.T) {
	const producers = 4
	env := newTestEnv(t, 512)
	files := env.makePartitionedInts(t, "s", 20_000, producers)
	finite := func(g int) (Iterator, error) { return NewFileScan(files[g], nil) }
	endless := func(g int) (Iterator, error) {
		mk := func() (Iterator, error) { return NewFileScan(files[g], nil) }
		sc, err := mk()
		if err != nil {
			return nil, err
		}
		return &loopScan{newScan: mk, cur: sc}, nil
	}
	for _, cancel := range []bool{false, true} {
		for _, batch := range []int{0, 83} {
			t.Run(fmt.Sprintf("cancel=%v/batch=%d", cancel, batch), func(t *testing.T) {
				done := make(chan struct{})
				input := finite
				if cancel {
					input = endless
				}
				x, m := mergeFlowExchange(t, input, producers, batch, done)
				if err := m.Open(); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 10; i++ {
					r, ok, err := m.Next()
					if err != nil || !ok {
						t.Fatalf("next %d: ok=%v err=%v", i, ok, err)
					}
					r.Unfix()
				}
				// A producer blocked on its stream's single token has two
				// packets queued: the one holding the token and the one it
				// pushed before asking for the next.
				withDeadline(t, 20*time.Second, func() {
					for !everyStreamQueued(x, 2) {
						time.Sleep(time.Millisecond)
					}
				})
				if cancel {
					close(done)
				}
				var err error
				withDeadline(t, 20*time.Second, func() { err = m.Close() })
				if err != nil && !errors.Is(err, ErrCanceled) {
					t.Fatalf("close: %v", err)
				}
				env.checkNoPinLeak(t)
				if live := xmProducersLive.Load(); live != 0 {
					t.Fatalf("%d producer goroutines still live after Close", live)
				}
			})
		}
	}
}

// everyStreamQueued reports whether each producer stream of consumer 0's
// queue holds at least n packets.
func everyStreamQueued(x *Exchange, n int) bool {
	q := x.port.queues[0]
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := range q.byProd {
		if q.byProd[i].size() < n {
			return false
		}
	}
	return true
}
