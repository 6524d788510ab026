package plan

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary scripts to the plan-language parser. The
// parser fronts the query server's POST /query endpoint, so it must never
// panic, whatever arrives. For scripts that do parse, the properties the
// serving layer leans on must hold: Normalize is idempotent and
// normalizing never turns a parseable script unparseable (the plan cache
// keys on the normal form but compiles the original), Explain and the
// producer-goroutine estimate (admission weights) are total.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"scan emp",
		"scan emp | filter salary > 1200 AND name LIKE 'a%' | sort salary desc",
		"with depts = scan dept | filter budget > 100\nscan emp | join hash depts on dept = id",
		"pscan emp 4 | exchange producers=4 packet=7 | agg group dept compute count, sum(salary)",
		"iscan emp emp_id 10 20 | project id, salary * 1.1 as raised",
		"scan a | distinct sort | exchange producers=2 partition=hash(x) merge=x:asc",
		"with b = scan b\nscan a | union merge b",
		"with b = scan b\nscan a | divide hash b quot s div c on c",
		"scan e\n| filter dept = 2  # trailing comment\n| project name as n",
		"scan emp | exchange producers=2 fork=tree broadcast inline",
		// Regression seeds: keyword overlap used to slice out of bounds.
		"scan emp | agg group compute x",
		"scan emp | divide d quot div x on y",
		"scan emp | agg hash group  compute count",
		"with d = scan d\nscan emp | divide hash d quot a div on c",
		"scan emp | exchange partition=HASH(",
		"scan emp | join loops x on",
		"with = scan t\nscan t",
		"| filter x = 1",
		"scan emp |",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Parse(src)

		norm := Normalize(src)
		if again := Normalize(norm); again != norm {
			t.Fatalf("Normalize not idempotent:\n 1: %q\n 2: %q", norm, again)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "plan: ") {
				t.Fatalf("error without plan prefix: %v", err)
			}
			return
		}
		// A parseable script stays parseable in normal form — the cache
		// would otherwise compile a different plan than it keyed.
		if _, err := Parse(norm); err != nil {
			t.Fatalf("normal form of parseable script fails: %v\nsource: %q\nnormal: %q", err, src, norm)
		}
		if p := ProducerGoroutines(n); p < 0 {
			t.Fatalf("negative producer estimate %d for %q", p, src)
		}
		_ = Explain(n)
	})
}
