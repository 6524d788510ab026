// Dynamic query evaluation plans [Graefe & Ward 1989], the companion
// Volcano work: a query is optimised once into *alternative* plans — here
// a B+-tree index range scan and a full scan with a filter — and a
// choose-plan operator picks between them at open time, when the actual
// parameter value (and thus the selectivity) is known. The example runs
// on a durable, disk-backed volume with a persisted index catalog.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/storage/btree"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
	"repro/internal/storage/file"
)

const rows = 200000

var schema = record.MustSchema(
	record.Field{Name: "id", Type: record.TInt},
	record.Field{Name: "payload", Type: record.TString},
)

func main() {
	dir, err := os.MkdirTemp("", "volcano-dynplans")
	must(err)
	defer os.RemoveAll(dir)
	dbPath := filepath.Join(dir, "db")

	// --- Build a durable database with an index, then close it. --------
	func() {
		reg := device.NewRegistry()
		id := reg.NextID()
		d, err := device.NewDisk(id, dbPath, 1<<16)
		must(err)
		must(reg.Mount(d))
		defer reg.CloseAll()
		pool := buffer.NewPool(reg, 4096, buffer.TwoLevel)
		vol, err := file.Format(pool, id)
		must(err)
		f, err := vol.Create("events", schema)
		must(err)
		tree, err := btree.Create(pool, id)
		must(err)
		for i := 0; i < rows; i++ {
			rid, err := f.Insert(schema.MustEncode(
				record.Int(int64(i)), record.Str(fmt.Sprintf("event-%d", i))))
			must(err)
			must(tree.Insert(btree.EncodeKey(record.Int(int64(i))), rid))
		}
		vol.SaveIndex("events_id", tree)
		must(vol.Save())
		fmt.Printf("built database: %d rows, index height %d\n", rows, tree.Height())
	}()

	// --- Reopen and query with a dynamic plan. --------------------------
	reg := device.NewRegistry()
	id := reg.NextID()
	d, err := device.OpenDisk(id, dbPath)
	must(err)
	must(reg.Mount(d))
	tempID := reg.NextID()
	must(reg.Mount(device.NewMem(tempID)))
	defer reg.CloseAll()
	pool := buffer.NewPool(reg, 4096, buffer.TwoLevel)
	vol, err := file.OpenVolume(pool, id)
	must(err)
	_ = core.NewEnv(pool, file.NewVolume(pool, tempID)) // temp volume ready for operators that materialise
	f, err := vol.Open("events")
	must(err)
	tree, err := vol.OpenIndex("events_id")
	must(err)

	// The prepared query: "ids in [lo, lo+span)". Plan A uses the index;
	// plan B scans everything. The decision function estimates
	// selectivity from the run-time parameters.
	query := func(lo, span int64) (int, string, time.Duration) {
		idx, err := core.NewIndexScan(tree, f, nil,
			btree.EncodeKey(record.Int(lo)), btree.EncodeKey(record.Int(lo+span-1)), true, true)
		must(err)
		full, err := core.NewFilterExpr(mustScan(f),
			fmt.Sprintf("id >= %d AND id < %d", lo, lo+span), expr.Compiled)
		must(err)
		chosen := ""
		cp, err := core.NewChoosePlan([]core.Iterator{idx, full}, func() (int, error) {
			// Index wins for selective ranges; a full scan wins when the
			// range covers a large fraction of the table (no per-record
			// RID fetch).
			if float64(span)/float64(rows) < 0.05 {
				chosen = "index scan"
				return 0, nil
			}
			chosen = "full scan"
			return 1, nil
		})
		must(err)
		start := time.Now()
		n, err := core.Drain(cp)
		must(err)
		return n, chosen, time.Since(start)
	}

	for _, span := range []int64{100, 150000} {
		n, chosen, elapsed := query(1000, span)
		fmt.Printf("range of %6d ids → choose-plan picked %-10s: %6d rows in %v\n",
			span, chosen, n, elapsed.Round(time.Microsecond))
	}
	if n := pool.Stats().CurrentlyFixedHint; n != 0 {
		log.Fatalf("buffer pin leak: %d", n)
	}
	fmt.Println("all pins balanced")
}

func mustScan(f *file.File) core.Iterator {
	s, err := core.NewFileScan(f, nil)
	must(err)
	return s
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
