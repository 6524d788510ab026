package dist

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/plan"
)

// bindBatch is bind with the coordinator's build in batch mode; the
// dispatched fragments always run the batch protocol.
func bindBatch(t testing.TB, c *Coordinator, db *distDB, queryID, script string, batch int) (core.Iterator, *Summary) {
	t.Helper()
	tpl, err := plan.Compile(script)
	if err != nil {
		t.Fatal(err)
	}
	sum := &Summary{}
	it, _, err := plan.BuildWith(db.env, db.cat, tpl.Root(), plan.BuildOptions{
		BatchSize: batch,
		Remote: c.Binder(BindRequest{
			QueryID: queryID,
			Source:  tpl.Source(),
			Root:    tpl.Root(),
			Env:     db.env,
			Cat:     db.cat,
			Summary: sum,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return it, sum
}

// producersLive reads the process-wide live exchange producer gauge.
func producersLive(t testing.TB) bool {
	reg := metrics.NewRegistry()
	core.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return !strings.Contains(buf.String(), "\nvolcano_exchange_producers_live 0\n")
}

// TestDistBatchMode runs the distributed plan under the batch protocol,
// fragments included, and checks it returns exactly the rows of row
// mode and leaves nothing pinned on the coordinator.
func TestDistBatchMode(t *testing.T) {
	const rows = 3000
	f := newFleet(t, rows, 8, 2, nil)
	db := newDistDB(t, rows, 8)

	it, _ := bind(t, f.c, db, "q-rows", distScript)
	rowRows, err := core.Collect(it)
	if err != nil {
		t.Fatalf("row mode: %v", err)
	}
	want := renderSorted(rowRows)
	if len(want) != rows {
		t.Fatalf("row mode returned %d rows, want %d", len(want), rows)
	}
	for _, batch := range []int{5, 83} {
		it, sum := bindBatch(t, f.c, db, fmt.Sprintf("q-batch-%d", batch), distScript, batch)
		gotRows, err := core.CollectBatch(it, batch)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		got := renderSorted(gotRows)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("batch %d returned %d rows that differ from row mode's %d", batch, len(got), len(want))
		}
		for _, fr := range sum.Fragments() {
			if fr.State != "done" || fr.Attempts != 1 {
				t.Errorf("batch %d: fragment %s/%d state %q after %d attempts", batch, fr.Path, fr.Producer, fr.State, fr.Attempts)
			}
		}
		if pinned := db.pool.PinnedFrames(); pinned != 0 {
			t.Fatalf("batch %d: %d frames still pinned on the coordinator", batch, pinned)
		}
	}
}

// TestDistEarlyClose closes the coordinator's consumer after its first
// record, with every fragment far from done. Close must not wait out
// the remote streams, and must leave no pinned frames, no live producer
// goroutines and no open data-plane connections behind.
func TestDistEarlyClose(t *testing.T) {
	// Fat rows, far beyond socket buffering, as in the worker-loss test.
	const rows = 40000
	f := newFleet(t, rows, 400, 2, nil)
	db := newDistDB(t, rows, 400)

	it, sum := bind(t, f.c, db, "q-early", distScript)
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	r, ok, err := it.Next()
	if err != nil || !ok {
		t.Fatalf("first record: ok=%v err=%v", ok, err)
	}
	r.Unfix()
	if err := it.Close(); err != nil {
		t.Fatalf("early close: %v", err)
	}

	var delivered int64
	for _, fr := range sum.Fragments() {
		delivered += fr.Records
		if fr.State == "running" {
			t.Errorf("fragment %s/%d still running after Close", fr.Path, fr.Producer)
		}
	}
	if delivered >= rows {
		t.Fatalf("Close waited out the remote streams: %d of %d records delivered", delivered, rows)
	}
	if pinned := db.pool.PinnedFrames(); pinned != 0 {
		t.Fatalf("%d frames still pinned on the coordinator", pinned)
	}
	if producersLive(t) {
		t.Fatal("exchange producers still live after Close")
	}
	if n := f.c.dataConns.Load(); n != 0 {
		t.Fatalf("%d data-plane connections still open after Close", n)
	}
}
