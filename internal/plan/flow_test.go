package plan

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/record"
)

// Every record queued in an exchange packet holds a buffer pin (§4.1), so
// a producer group that runs ahead of its consumer pins the pool. The
// plans here run over a table with twice as many pages as the pool has
// frames; they finish only because every planned exchange is
// flow-controlled, with per-stream tokens in merge mode.
func TestPlannedExchangeBoundsPins(t *testing.T) {
	const frames, rows, parts = 64, 16_000, 4
	db := newTestDBFrames(t, frames)
	pages := 0
	for p := 0; p < parts; p++ {
		f, err := db.vol.Create(fmt.Sprintf("emp.%d", p), empSchema)
		if err != nil {
			t.Fatal(err)
		}
		for i := p; i < rows; i += parts {
			if _, err := f.Insert(empSchema.MustEncode(
				record.Int(int64(i)), record.Int(int64(i%8)),
				record.Float(1000+float64(i%97)), record.Str(fmt.Sprintf("emp-%d", i)),
			)); err != nil {
				t.Fatal(err)
			}
		}
		db.cat[fmt.Sprintf("emp.%d", p)] = f
		pages += f.Stats().Pages
	}
	if pages < 2*frames {
		t.Fatalf("emp has %d pages, want at least %d", pages, 2*frames)
	}
	pool := db.env.Pool
	for _, script := range []string{
		"pscan emp 4 | exchange producers=4 packet=83 | sort dept, salary",
		"pscan emp 4 | sort dept | exchange producers=4 merge=dept",
	} {
		for _, batch := range []int{0, 83} {
			t.Run(fmt.Sprintf("%s/batch=%d", script, batch), func(t *testing.T) {
				n, err := Parse(script)
				if err != nil {
					t.Fatal(err)
				}
				var got [][]record.Value
				finished := make(chan struct{})
				go func() {
					defer close(finished)
					if batch > 0 {
						got, err = RunBatch(db.env, db.cat, n, batch)
					} else {
						got, err = Run(db.env, db.cat, n)
					}
				}()
				select {
				case <-finished:
				case <-time.After(60 * time.Second):
					t.Fatal("plan did not finish")
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != rows {
					t.Fatalf("got %d rows, want %d", len(got), rows)
				}
				for i := 1; i < len(got); i++ {
					if got[i][1].I < got[i-1][1].I {
						t.Fatalf("row %d: dept %d after %d", i, got[i][1].I, got[i-1][1].I)
					}
				}
				if pinned := pool.PinnedFrames(); pinned != 0 {
					t.Fatalf("%d frames still pinned", pinned)
				}
			})
		}
	}
}
