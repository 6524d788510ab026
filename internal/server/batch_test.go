package server

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/plan"
)

// splitRows returns the response's data lines (everything but the
// trailer) sorted, so nondeterministic exchange arrival order does not
// flap the comparison.
func splitRows(res queryResult) []string {
	lines := strings.Split(strings.TrimRight(res.body, "\n"), "\n")
	rows := lines[:len(lines)-1] // last line is the trailer
	sort.Strings(rows)
	return rows
}

// rowModeLines runs script in process, record-at-a-time, exactly as
// plan.Run does, and renders the rows as the server's NDJSON lines,
// sorted like splitRows.
func rowModeLines(t *testing.T, w *world, script string) []string {
	t.Helper()
	tpl, err := plan.Compile(script)
	if err != nil {
		t.Fatal(err)
	}
	it, _, err := plan.BuildWith(w.env, w.cat, tpl.Root(), plan.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rw := newRowWriter(it.Schema())
	rows, err := core.Collect(it)
	if err != nil {
		t.Fatalf("row mode %q: %v", script, err)
	}
	lines := make([]string, len(rows))
	for i, vals := range rows {
		lines[i] = strings.TrimSuffix(string(rw.row(vals)), "\n")
	}
	sort.Strings(lines)
	return lines
}

// TestBatchExecution checks that the server, which always executes under
// the batch protocol, streams exactly the rows an in-process
// record-at-a-time run of the same plan produces.
func TestBatchExecution(t *testing.T) {
	_, w, ts, _ := newTestServer(t, nil)

	scripts := []string{
		"scan emp | filter dept = 2 | sort salary desc, id",
		"pscan emp 4 | exchange producers=4 | agg group dept compute count",
		"with d = scan dept\nscan emp | join hash d on dept = dno",
		"scan emp | filter salary > 1200 | project id, name",
	}
	for _, script := range scripts {
		want := rowModeLines(t, w, script)
		res, err := postQuery(ts, script)
		if err != nil {
			t.Fatalf("%q: %v", script, err)
		}
		if res.trailer.Status != "ok" {
			t.Fatalf("%q: trailer %+v", script, res.trailer)
		}
		if res.rows != len(want) {
			t.Fatalf("%q: served %d rows, row mode gave %d", script, res.rows, len(want))
		}
		got := splitRows(res)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q: row %d differs:\n got %s\nwant %s", script, i, got[i], want[i])
			}
		}
	}
}

// producersLive reads the process-wide live exchange producer gauge.
func producersLive(t testing.TB) bool {
	t.Helper()
	reg := metrics.NewRegistry()
	core.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return !strings.Contains(buf.String(), "\nvolcano_exchange_producers_live 0\n")
}

// checkQuiesced asserts the end state every abandoned, canceled or
// drained query must leave behind: no exchange producer goroutine still
// running and no frame pinned in the shared pool.
func checkQuiesced(t *testing.T, w *world, when string) {
	t.Helper()
	waitFor(t, 10*time.Second, "exchange producers to exit "+when, func() bool { return !producersLive(t) })
	if got := w.pool.Stats().CurrentlyFixedHint; got != 0 {
		t.Fatalf("pinned frames %s: %d, want 0", when, got)
	}
}
