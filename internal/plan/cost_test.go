package plan

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/storage/btree"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
	"repro/internal/storage/file"
)

// stripKnobs removes every knob the costing pass can fill, turning an
// explicit corpus plan into the knobless form a user would write when
// trusting the planner: exchange packet sizes revert to "unset", match
// algorithms to "unchosen". Producer counts stay: the parser fixes them.
func stripKnobs(n *Node) {
	if n.X != nil {
		n.X.PacketSize = 0
	}
	n.AlgoSet = false
	for _, in := range n.Inputs {
		stripKnobs(in)
	}
}

// findChoose returns every choose-plan node in a costed tree, pre-order.
func findChoose(n *Node) []*Node {
	var out []*Node
	if n.Kind == KindChoosePlan {
		out = append(out, n)
	}
	for _, in := range n.Inputs {
		out = append(out, findChoose(in)...)
	}
	return out
}

// TestCostMetamorphicCorpus is the planner's metamorphic property over
// the differential corpus: stripping every knob the costing pass can
// fill and letting it re-pick them must not change any result set —
// in row mode or at any batch size. This is what makes the pass safe to
// run on every server query: whatever parallelism, packet size, or
// choose-plan strategy it selects, the answer is the text plan's answer.
func TestCostMetamorphicCorpus(t *testing.T) {
	db := newDiffDB(t)
	chooseSeen := false
	for _, tc := range diffCorpus {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := Parse(tc.script)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			refRows, err := Run(db.env, db.cat, ref)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			want := renderSorted(refRows)

			tpl, err := Compile(tc.script)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			stripKnobs(tpl.root)
			cp := tpl.Cost(db.cat, nil)
			root := cp.Template.Root()
			if len(findChoose(root)) > 0 {
				chooseSeen = true
			}
			costedRows, err := Run(db.env, db.cat, root)
			if err != nil {
				t.Fatalf("costed run: %v", err)
			}
			if got := renderSorted(costedRows); strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("costed plan changed the row-mode result:\nplan:\n%s", Explain(root))
			}
			for _, size := range diffBatchSizes {
				batchRows, err := RunBatch(db.env, db.cat, root, size)
				if err != nil {
					t.Fatalf("costed batch size %d: %v", size, err)
				}
				if got := renderSorted(batchRows); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("costed plan changed the batch-%d result:\nplan:\n%s", size, Explain(root))
				}
			}
			if pinned := db.pool.PinnedFrames(); pinned != 0 {
				t.Fatalf("%d frames still pinned after costed runs", pinned)
			}
		})
	}
	if !chooseSeen {
		t.Fatalf("no corpus plan produced a choose-plan node — the metamorphic property never exercised one")
	}
}

// TestCostFillsExchangeDOP pins the structural planning rule: an
// exchange whose producer count the text omits gets the partition count
// of the pscan below it (anything else would duplicate or underread a
// non-partitioned subtree), and an explicit count that differs is a
// compile error.
func TestCostFillsExchangeDOP(t *testing.T) {
	db := newDiffDB(t)
	cases := []struct {
		script    string
		producers int
		packet    int    // 0 = don't check
		err       string // non-empty: Compile must fail with this
	}{
		{"pscan nums 4 | exchange", 4, 16, ""},           // 500 rows -> small packets
		{"pscan nums 4 | exchange packet=16", 4, 16, ""}, // explicit packet kept
		{"pscan nums 4 | exchange producers=2 packet=16", 0, 0, "each producer scans one partition"},
		{"scan emp | exchange", 1, 0, ""}, // no pscan below: fan-out must stay 1
	}
	for _, tc := range cases {
		tpl, err := Compile(tc.script)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("compile %q: err = %v, want %q", tc.script, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("compile %q: %v", tc.script, err)
		}
		cp := tpl.Cost(db.cat, nil)
		x := cp.Template.Root().X
		if x == nil {
			t.Fatalf("%q: costed root is not an exchange", tc.script)
		}
		if x.Producers != tc.producers {
			t.Errorf("%q: producers = %d, want %d", tc.script, x.Producers, tc.producers)
		}
		if tc.packet != 0 && x.PacketSize != tc.packet {
			t.Errorf("%q: packet = %d, want %d", tc.script, x.PacketSize, tc.packet)
		}
	}
	// The goroutine footprint admission control weighs is the fan-out
	// that will run, from compile on.
	tpl, err := Compile("pscan nums 4 | exchange")
	if err != nil {
		t.Fatal(err)
	}
	if got, costed := tpl.ProducerGoroutines(), tpl.Cost(db.cat, nil).Template.ProducerGoroutines(); got != 4 || costed != 4 {
		t.Errorf("ProducerGoroutines = %d compiled, %d costed, want 4", got, costed)
	}
}

// TestCostLargeStreamPacketBuilds costs an exchange over a stream
// estimated at 60k rows — the largest packet tier — and then builds and
// runs the plan: the chosen packet size must be one the exchange
// accepts.
func TestCostLargeStreamPacketBuilds(t *testing.T) {
	db := newDiffDB(t)
	tpl, err := Compile("pscan nums 4 | exchange")
	if err != nil {
		t.Fatal(err)
	}
	scan := tpl.root.Inputs[0]
	cp := tpl.Cost(db.cat, map[*Node]int64{scan: 60_000})
	root := cp.Template.Root()
	if got := cp.Estimates[root]; got < 50_000 {
		t.Fatalf("exchange estimated at %d rows, want the >=50k tier", got)
	}
	if root.X.PacketSize != 255 {
		t.Errorf("packet = %d, want 255", root.X.PacketSize)
	}
	rows, err := Run(db.env, db.cat, root)
	if err != nil {
		t.Fatalf("costed plan does not build and run: %v", err)
	}
	if len(rows) != 500 {
		t.Fatalf("got %d rows, want 500", len(rows))
	}
}

// TestCostChoosePlanInsertion pins when the pass defers the hash-vs-
// merge decision to Open: only for equality matches whose algorithm the
// text left unchosen and whose build side resolves to a catalog table.
func TestCostChoosePlanInsertion(t *testing.T) {
	db := newDiffDB(t)

	tpl, err := Compile("with d = scan dept\nscan emp | join hash d on dept = dno")
	if err != nil {
		t.Fatal(err)
	}
	stripKnobs(tpl.root)
	cp := tpl.Cost(db.cat, nil)
	chooses := findChoose(cp.Template.Root())
	if len(chooses) != 1 {
		t.Fatalf("costed plan has %d choose-plan nodes, want 1:\n%s", len(chooses), Explain(cp.Template.Root()))
	}
	ch := chooses[0]
	if ch.Choose == nil || ch.Choose.Table != "dept" {
		t.Fatalf("choose spec = %+v, want table dept", ch.Choose)
	}
	if got := strings.Join(ch.Choose.Labels, "|"); got != "hash|merge" {
		t.Fatalf("choose labels = %q, want hash|merge", got)
	}
	if len(ch.Inputs) != 2 {
		t.Fatalf("choose has %d alternatives, want 2", len(ch.Inputs))
	}
	if ch.Inputs[0] == ch.Inputs[1] || ch.Inputs[0].Inputs[0] == ch.Inputs[1].Inputs[0].Inputs[0] {
		t.Fatalf("alternatives share node pointers — per-node stats would collide")
	}
	merge := ch.Inputs[1]
	if merge.Algo != AlgoSort || !merge.AlgoSet {
		t.Fatalf("alternative 1 algo = %v (set=%v), want explicit sort", merge.Algo, merge.AlgoSet)
	}
	for i, in := range merge.Inputs {
		if in.Kind != KindSort {
			t.Fatalf("merge alternative input %d is %v, want a sort", i, in.Kind)
		}
	}
	if _, ok := cp.Estimates[ch]; !ok {
		t.Fatalf("choose-plan node has no cardinality estimate")
	}

	// An explicit algorithm is a user decision: never second-guessed.
	tpl2, err := Compile("with d = scan dept\nscan emp | join merge d on dept = dno")
	if err != nil {
		t.Fatal(err)
	}
	if got := findChoose(tpl2.Cost(db.cat, nil).Template.Root()); len(got) != 0 {
		t.Fatalf("explicit merge join was wrapped in a choose-plan")
	}
}

// TestChoosePlanDecisionByStats drives both sides of the decision
// function through the catalog it consults at Open: under the
// threshold the hash alternative runs, over it the merge alternative
// does — same rows either way.
func TestChoosePlanDecisionByStats(t *testing.T) {
	const script = "with d = scan dept\nscan emp | join hash d on dept = dno"
	db := newDiffDB(t)
	ref, err := Parse(script)
	if err != nil {
		t.Fatal(err)
	}
	refRows, err := Run(db.env, db.cat, ref)
	if err != nil {
		t.Fatal(err)
	}
	want := renderSorted(refRows)

	run := func(t *testing.T, threshold int64, wantChoice int, wantLabel string) {
		old := DefaultHashBuildThreshold
		DefaultHashBuildThreshold = threshold
		defer func() { DefaultHashBuildThreshold = old }()
		tpl, err := Compile(script)
		if err != nil {
			t.Fatal(err)
		}
		stripKnobs(tpl.root)
		cp := tpl.Cost(db.cat, nil)
		it, an, err := BuildWith(db.env, db.cat, cp.Template.Root(), BuildOptions{
			Analyze:   true,
			Estimates: cp.Estimates,
		})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := drainValues(it)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderSorted(rows); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("threshold %d changed the result set", threshold)
		}
		chooses := findChoose(cp.Template.Root())
		if len(chooses) != 1 {
			t.Fatalf("%d choose-plan nodes, want 1", len(chooses))
		}
		if got := an.Choice(chooses[0]); got != wantChoice {
			t.Fatalf("choice = %d, want %d (%s)", got, wantChoice, wantLabel)
		}
		if report := an.String(); !strings.Contains(report, "chosen="+wantLabel) {
			t.Fatalf("analyze report does not name the chosen alternative %q:\n%s", wantLabel, report)
		}
	}
	// dept has 4 records: threshold 100 keeps the hash build, threshold 3
	// tips the decision to sort-merge.
	t.Run("hash", func(t *testing.T) { run(t, 100, 0, "hash") })
	t.Run("merge", func(t *testing.T) { run(t, 3, 1, "merge") })
}

// drainValues drains an iterator through Open/Next/Close, decoding
// every record.
func drainValues(it core.Iterator) ([][]record.Value, error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	sch := it.Schema()
	var rows [][]record.Value
	for {
		r, ok, err := it.Next()
		if err != nil {
			_ = it.Close()
			return nil, err
		}
		if !ok {
			break
		}
		vals, err := sch.Decode(r.Data)
		r.Unfix()
		if err != nil {
			_ = it.Close()
			return nil, err
		}
		rows = append(rows, vals)
	}
	return rows, it.Close()
}

// TestCostMisEstimateFeedback closes the loop the server runs per cache
// entry: a selective predicate the model can't see mis-estimates by more
// than the factor, one re-cost with the observed cardinalities fixes it,
// and the corrected plan no longer trips the detector — exactly one
// re-plan, then convergence.
func TestCostMisEstimateFeedback(t *testing.T) {
	db := newDiffDB(t)
	tpl, err := Compile("scan emp | filter id < 1")
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func(cp *CostedPlan) *Analysis {
		it, an, err := BuildWith(db.env, db.cat, cp.Template.Root(), BuildOptions{
			Analyze:   true,
			Estimates: cp.Estimates,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := drainValues(it); err != nil {
			t.Fatal(err)
		}
		return an
	}

	cp := tpl.Cost(db.cat, nil)
	an := runOnce(cp)
	node, est, obs, mis := cp.MisEstimated(an, MisEstimateFactor)
	if !mis {
		t.Fatalf("selective filter did not register as mis-estimated")
	}
	if node == nil || est <= obs {
		t.Fatalf("mis-estimate = node %v est %d obs %d; want an overestimate", node, est, obs)
	}

	// Re-cost with the observations folded back — the server does this by
	// discarding the cache entry's costed plan and re-deriving.
	observed := cp.Observed(an)
	if len(observed) == 0 {
		t.Fatalf("no observed cardinalities extracted")
	}
	cp2 := tpl.Cost(db.cat, observed)
	an2 := runOnce(cp2)
	if _, est2, obs2, mis2 := cp2.MisEstimated(an2, MisEstimateFactor); mis2 {
		t.Fatalf("re-costed plan still mis-estimated (est %d obs %d) — feedback did not converge", est2, obs2)
	}
}

// indexedEmpDB builds emp(id, dept, salary, name) with n rows and
// dept(dno, dname) with 64 rows on a volume, B+-tree indexes emp_id
// (unique key) and emp_dept (64 departments), and analyzed statistics.
func indexedEmpDB(t *testing.T, n int) (*core.Env, VolumeCatalog) {
	t.Helper()
	const depts = 64
	reg := device.NewRegistry()
	baseID, tempID := reg.NextID(), reg.NextID()
	reg.Mount(device.NewMem(baseID))
	reg.Mount(device.NewMem(tempID))
	t.Cleanup(func() { reg.CloseAll() })
	pool := buffer.NewPool(reg, 512, buffer.TwoLevel)
	vol := file.NewVolume(pool, baseID)
	emp, err := vol.Create("emp", empSchema)
	if err != nil {
		t.Fatal(err)
	}
	byID, err := btree.Create(pool, baseID)
	if err != nil {
		t.Fatal(err)
	}
	byDept, err := btree.Create(pool, baseID)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rid, err := emp.Insert(empSchema.MustEncode(record.Int(int64(i)), record.Int(int64(i%depts)),
			record.Float(1000+float64(i)), record.Str(fmt.Sprintf("emp-%d", i))))
		if err != nil {
			t.Fatal(err)
		}
		if err := byID.Insert(btree.EncodeKey(record.Int(int64(i))), rid); err != nil {
			t.Fatal(err)
		}
		if err := byDept.Insert(btree.EncodeKey(record.Int(int64(i%depts))), rid); err != nil {
			t.Fatal(err)
		}
	}
	vol.SaveIndex("emp_id", byID)
	vol.SaveIndex("emp_dept", byDept)
	dept, err := vol.Create("dept", deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < depts; d++ {
		if _, err := dept.Insert(deptSchema.MustEncode(record.Int(int64(d)), record.Str(fmt.Sprintf("dept-%02d", d)))); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"emp", "dept"} {
		if _, err := vol.Analyze(name); err != nil {
			t.Fatal(err)
		}
	}
	return core.NewEnv(pool, file.NewVolume(pool, tempID)), VolumeCatalog{vol}
}

// TestCostIndexRangeOnUniqueKey pins the estimates behind the lookups a
// server repeats. A bounded range over a unique key is estimated at one
// row per key, and an aggregate over a join groups into the ANALYZEd
// distinct count of its group field, so the first run's feedback finds
// no mis-estimate and the second run is not re-planned. A range over a
// non-unique key keeps the generic third-of-the-table guess.
func TestCostIndexRangeOnUniqueKey(t *testing.T) {
	const rows = 1000
	env, cat := indexedEmpDB(t, rows)
	run := func(cp *CostedPlan) *Analysis {
		it, an, err := BuildWith(env, cat, cp.Template.Root(), BuildOptions{Analyze: true, Estimates: cp.Estimates})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := drainValues(it); err != nil {
			t.Fatal(err)
		}
		return an
	}
	for _, tc := range []struct {
		script    string
		est       int64 // of the root
		converges bool  // the first run's feedback finds no mis-estimate
	}{
		{"iscan emp emp_id 500 509", 10, true},
		{"iscan emp emp_id 0 4999", rows, true}, // no more than the table
		{"with d = scan dept\niscan emp emp_id 100 199 | join hash d on dept = dno | agg group dname compute count, avg(salary)", 64, true},
		{"iscan emp emp_dept 2 3", rows / 3, false},
	} {
		tpl, err := Compile(tc.script)
		if err != nil {
			t.Fatal(err)
		}
		cp := tpl.Cost(cat, nil)
		if got := cp.Estimates[cp.Template.Root()]; got != tc.est {
			t.Errorf("%q: estimate %d, want %d", tc.script, got, tc.est)
		}
		if !tc.converges {
			continue
		}
		// The server's feedback loop: only a mis-estimate in a completed
		// run discards the costed plan and re-plans the next run.
		if n, est, obs, mis := cp.MisEstimated(run(cp), MisEstimateFactor); mis {
			t.Errorf("%q: first run mis-estimated at %s (est %d obs %d): the second run would re-plan", tc.script, describe(n), est, obs)
		}
	}
}

// TestParseDOPBounds pins the parse-time validation of parallelism
// knobs: out-of-range values fail with a positioned ParseError before
// any build or admission decision sees them.
func TestParseDOPBounds(t *testing.T) {
	for _, tc := range []struct {
		script string
		frag   string
	}{
		{"pscan nums 2000", "exceeds max"},
		{"pscan nums 4 | exchange producers=0", "out of range"},
		{"pscan nums 4 | exchange producers=2000", "out of range"},
		{"pscan nums 4 | exchange producers=2", "each producer scans one partition"},
		{"pscan nums 4 | agg group v compute count", "not under an exchange"},
		{"with d = pscan dept 2\npscan nums 4 | join hash d on v = dno | exchange", "feed the same producers"},
	} {
		_, err := Parse(tc.script)
		if err == nil {
			t.Fatalf("%q: parse succeeded, want DOP bound error", tc.script)
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("%q: error %T is not a *ParseError: %v", tc.script, err, err)
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Fatalf("%q: error %q does not mention %q", tc.script, err, tc.frag)
		}
	}
}
