package core

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestInstrumentCountsAndTimes drains a wrapped scan and checks the
// counters agree with the protocol: one open, rows + EOS Next calls,
// one close, and non-negative accumulated times.
func TestInstrumentCountsAndTimes(t *testing.T) {
	env := newTestEnv(t, 256)
	f := env.makeInts(t, "t", 1, 2, 3, 4, 5)
	ins := Instrument(scanOf(t, f), "scan t")
	n, err := Drain(ins)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("drained %d rows", n)
	}
	st := ins.Stats().Snapshot()
	if st.Rows != 5 || st.NextCalls != 6 || st.Opens != 1 || st.Closes != 1 {
		t.Fatalf("counters: %+v", st)
	}
	if st.OpenTime < 0 || st.NextTime < 0 || st.CloseTime < 0 {
		t.Fatalf("negative time: %+v", st)
	}
	out := st.String()
	for _, want := range []string{"rows=5", "calls=6", "opens=1", "open=", "next=", "close="} {
		if !strings.Contains(out, want) {
			t.Fatalf("snapshot %q missing %q", out, want)
		}
	}
	if ins.Name() != "scan t" {
		t.Fatalf("name = %q", ins.Name())
	}
	if ins.Unwrap() == nil {
		t.Fatal("unwrap lost the inner iterator")
	}
}

// TestInstrumentWithSharedStats runs several wrapped instances over one
// OpStats concurrently — the shape parallel plan instances produce —
// and checks the counters aggregate without losing updates.
func TestInstrumentWithSharedStats(t *testing.T) {
	env := newTestEnv(t, 1024)
	const workers, rows = 4, 50
	files := env.makePartitionedInts(t, "p", workers*rows, workers)
	shared := &OpStats{}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc, err := NewFileScan(files[w], nil)
			if err != nil {
				errs[w] = err
				return
			}
			_, errs[w] = Drain(InstrumentWith(sc, "pscan p", shared))
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	st := shared.Snapshot()
	if st.Rows != workers*rows {
		t.Fatalf("shared rows = %d, want %d", st.Rows, workers*rows)
	}
	if st.Opens != workers || st.Closes != workers {
		t.Fatalf("opens=%d closes=%d, want %d each", st.Opens, st.Closes, workers)
	}
	if st.NextCalls != workers*(rows+1) {
		t.Fatalf("calls = %d, want %d", st.NextCalls, workers*(rows+1))
	}
}

// slowFirst yields limit empty records; its first Next call sleeps for
// delay, like a sort's merge or an exchange's first wait.
type slowFirst struct {
	countRec
	delay time.Duration
}

func (s *slowFirst) Next() (Rec, bool, error) {
	if s.n == 0 {
		time.Sleep(s.delay)
	}
	return s.countRec.Next()
}

// TestInstrumentHeavyFirstCallNotScaled checks that the exact prefix
// keeps a heavy first call out of the sampled estimate: NextTime lands
// near the one 5 ms call, not near the sampleEvery-fold scale-up a
// sampled first call would give (80 ms).
func TestInstrumentHeavyFirstCallNotScaled(t *testing.T) {
	const delay = 5 * time.Millisecond
	ins := Instrument(&slowFirst{countRec: countRec{limit: 2000}, delay: delay}, "sort")
	if _, err := Drain(ins); err != nil {
		t.Fatal(err)
	}
	st := ins.Stats().Snapshot()
	if st.Rows != 2000 || st.NextCalls != 2001 {
		t.Fatalf("counters: %+v", st)
	}
	if st.NextTime < delay || st.NextTime > sampleEvery*delay/2 {
		t.Fatalf("next time = %v, want about %v", st.NextTime, delay)
	}
}

// TestInstrumentLiveSnapshotLag drives several instances over one shared
// OpStats, as an exchange's producers do, and reads it mid-stream the
// way /debug/queries does: each instance's unpublished counts stay under
// publishEvery, and end of stream and Close make the counts exact.
func TestInstrumentLiveSnapshotLag(t *testing.T) {
	shared := &OpStats{}
	steps := []int{500, 517, 563, 601}
	ins := make([]*Instrumented, len(steps))
	drained := int64(0)
	for w, n := range steps {
		ins[w] = InstrumentWith(&countRec{limit: 1000}, "pscan", shared)
		if err := ins[w].Open(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, ok, err := ins[w].Next(); !ok || err != nil {
				t.Fatalf("instance %d ended early: %v", w, err)
			}
		}
		drained += int64(n)
	}
	live := shared.Snapshot()
	if live.Rows > drained || drained-live.Rows >= int64(len(steps)*publishEvery) {
		t.Fatalf("live rows = %d after %d drained: lag must stay under %d per instance", live.Rows, drained, publishEvery)
	}
	if live.NextCalls != live.Rows {
		t.Fatalf("live calls = %d, rows = %d: no EOS call yet", live.NextCalls, live.Rows)
	}

	// Instance 0 runs to end of stream, which publishes its counts; the
	// others stop early and publish in Close.
	for {
		_, ok, err := ins[0].Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	drained += int64(1000 - steps[0])
	if got, lag := shared.Rows.Load(), int64((len(steps)-1)*publishEvery); got > drained || drained-got >= lag {
		t.Fatalf("rows = %d after instance 0's EOS, want within %d of %d", got, lag, drained)
	}
	for _, w := range ins {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	st := shared.Snapshot()
	if st.Rows != drained || st.NextCalls != drained+1 {
		t.Fatalf("final rows=%d calls=%d, want %d and %d", st.Rows, st.NextCalls, drained, drained+1)
	}
}
