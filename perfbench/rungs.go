package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/record"
	"repro/internal/storage/btree"
)

// rungReps is how many times each rung repeats; it reports the median.
const rungReps = 5

// rungs times the public entry points of the lower layers alone, on the
// workload's own database: the record codec over every emp row, buffer
// fix/unfix over emp's pages, a file scan of emp, B+-tree lookups of the
// point-lookup keys, and plan compile, cost and build of each of the
// workload's texts. Each repetition is a span under the query ID "rungs".
func rungs(st *store, w *workload, keys []int, spans *spanLog) (map[string]float64, error) {
	const id = "rungs"
	m := map[string]float64{}
	emp, err := st.vol.Open("emp")
	if err != nil {
		return nil, err
	}
	sch := emp.Schema()

	// Copy every row and note each page once.
	var rows [][]byte
	var pages []record.PageID
	sc := emp.NewScan(false)
	for {
		r, ok, err := sc.Next()
		if err != nil {
			sc.Close()
			return nil, err
		}
		if !ok {
			break
		}
		rows = append(rows, append([]byte(nil), r.Data...))
		if len(pages) == 0 || pages[len(pages)-1] != r.RID.PageID {
			pages = append(pages, r.RID.PageID)
		}
		r.Unfix()
	}
	sc.Close()
	vals := make([][]record.Value, len(rows))
	for i, r := range rows {
		if vals[i], err = sch.Decode(r); err != nil {
			return nil, err
		}
	}

	perRow := func(layer, name string, n int, fn func() error) (float64, error) {
		var ds []time.Duration
		for rep := 0; rep < rungReps; rep++ {
			start := time.Now()
			if err := spans.timed(id, layer, name, fn); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			ds = append(ds, time.Since(start))
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return float64(ds[len(ds)/2]) / float64(n), nil
	}

	if m["record.decode_ns_per_row"], err = perRow("record", "decode", len(rows), func() error {
		for _, r := range rows {
			if _, err := sch.Decode(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var buf []byte
	if m["record.encode_ns_per_row"], err = perRow("record", "encode", len(vals), func() error {
		for _, v := range vals {
			if buf, err = sch.AppendEncode(buf[:0], v); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	pool := st.pool
	if m["buffer.fix_unfix_ns"], err = perRow("storage/buffer", "fix+unfix", len(pages), func() error {
		for _, pid := range pages {
			f, err := pool.Fix(pid)
			if err != nil {
				return err
			}
			pool.Unfix(f, false)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if m["file.scan_ns_per_row"], err = perRow("storage/file", "scan emp", len(rows), func() error {
		sc := emp.NewScan(false)
		defer sc.Close()
		for {
			r, ok, err := sc.Next()
			if err != nil || !ok {
				return err
			}
			r.Unfix()
		}
	}); err != nil {
		return nil, err
	}
	tree, err := st.vol.OpenIndex("emp_id")
	if err != nil {
		return nil, err
	}
	ns, err := perRow("storage/btree", "lookup", len(keys), func() error {
		for _, k := range keys {
			if _, err := tree.Lookup(btree.EncodeKey(record.Int(int64(k)))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["btree.lookup_us"] = ns / 1e3

	// Plan layer: each distinct text the workload sends.
	texts := w.distinctTexts()
	cat := plan.VolumeCatalog{st.vol}
	env := core.NewEnv(st.pool, st.temp)
	var compile, cost, build time.Duration
	for rep := 0; rep < rungReps; rep++ {
		for _, text := range texts {
			var tpl *plan.Template
			start := time.Now()
			if err := spans.timed(id, "plan", "compile", func() (err error) {
				tpl, err = plan.Compile(text)
				return err
			}); err != nil {
				return nil, err
			}
			mid := time.Now()
			var cp *plan.CostedPlan
			_ = spans.timed(id, "plan", "cost", func() error {
				cp = tpl.Cost(cat, nil)
				return nil
			})
			mid2 := time.Now()
			if err := spans.timed(id, "plan", "build", func() error {
				_, _, err := cp.Template.Build(env, cat, plan.BuildOptions{Analyze: true, Estimates: cp.Estimates})
				return err
			}); err != nil {
				return nil, err
			}
			compile += mid.Sub(start)
			cost += mid2.Sub(mid)
			build += time.Since(mid2)
		}
	}
	n := float64(rungReps * len(texts) * 1e3)
	m["plan.compile_us"] = float64(compile) / n
	m["plan.cost_us"] = float64(cost) / n
	m["plan.build_us"] = float64(build) / n
	return m, nil
}
