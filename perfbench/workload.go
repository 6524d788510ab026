package main

import (
	"fmt"
	"math/rand"
	"sort"
)

// query is one distinct plan text a workload sends. Ordered results are
// compared row by row; unordered ones (a hash aggregate with no final
// sort) as a multiset.
type query struct {
	text    string
	ordered bool
}

// probe is a plan in the form users write it — knobs left to the
// planner, or the parallel shape — paired with the workload query whose
// result it must equal.
type probe struct {
	text string
	twin string
}

// workload is one traffic mix: the server configuration it runs
// against, and for each closed-loop client a fixed cycle of requests
// drawn from the seed (indices into queries).
type workload struct {
	frames  int // buffer pool frames of the server; 0 keeps the shipped default
	workers int // volcano-worker processes behind the server
	queries []query
	cycles  [][]int
	probes  []probe
}

var workloadNames = []string{"point-lookup", "join-agg", "sort-spill", "dist-agg"}

// Plan texts. Knobs are spelled out where the workload pins them, so the
// costing pass leaves them alone.
const (
	pointText   = "iscan emp emp_id %d %d | project id, salary"
	rangeText   = "with d = scan dept\niscan emp emp_id %d %d | join hash d on dept = dno | agg group dname compute count, avg(salary)"
	joinAggText = "with d = scan dept\npscan emp 4 | filter salary > %d | exchange producers=4 packet=83 | join hash d on dept = dno | agg group dname compute count, avg(salary) | sort dname"
	sortText    = "scan emp | sort dept, salary | agg sort group dept compute count, min(salary), max(salary)"
	distText    = "pscan emp 4 | filter salary > %d | exchange producers=4 packet=83 | agg group dept compute count, avg(salary) | sort dept"

	// As-written forms of the same queries.
	joinAggAsWritten = "with d = scan dept\npscan emp 4 | exchange | join hash d on dept = dno | agg group dname compute count, avg(salary) | sort dname"
	joinAggAllText   = "with d = scan dept\npscan emp 4 | exchange producers=4 packet=83 | join hash d on dept = dno | agg group dname compute count, avg(salary) | sort dname"
	sortParallel     = "pscan emp 4 | exchange producers=4 packet=83 | sort dept, salary | agg sort group dept compute count, min(salary), max(salary)"
	sortAsWritten    = "pscan emp 4 | exchange | sort dept, salary | agg sort group dept compute count, min(salary), max(salary)"
	distAsWritten    = "pscan emp 4 | exchange | agg group dept compute count, avg(salary) | sort dept"
	distAllText      = "pscan emp 4 | exchange producers=4 packet=83 | agg group dept compute count, avg(salary) | sort dept"
)

// pointCycle is the number of requests in one point-lookup client's
// cycle.
const pointCycle = 1000

// salaryCuts are the filter thresholds of join-agg and dist-agg as
// quantiles of the salary range, so every seed filters the same share of
// rows; the seed jitters each threshold and orders the cycle.
var salaryCuts = []float64{0.45, 0.5, 0.55, 0.6}

// buildWorkload draws a workload's request cycles from the seed.
func buildWorkload(name string, seed int64, spec dataSpec) (*workload, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	switch name {
	case "point-lookup":
		w := &workload{}
		idx := map[string]int{}
		keys := pointKeys(seed, spec)
		for c := 0; c < 2; c++ {
			// Exactly a fifth of each cycle is range queries, at seeded
			// positions.
			isRange := rng.Perm(pointCycle)
			cyc := make([]int, pointCycle)
			for i := range cyc {
				k := keys[c*pointCycle+i]
				var q query
				if isRange[i] >= pointCycle/5 {
					q = query{text: fmt.Sprintf(pointText, k, k+9), ordered: true}
				} else {
					q = query{text: fmt.Sprintf(rangeText, k, k+99)}
				}
				j, ok := idx[q.text]
				if !ok {
					j = len(w.queries)
					idx[q.text] = j
					w.queries = append(w.queries, q)
				}
				cyc[i] = j
			}
			w.cycles = append(w.cycles, cyc)
		}
		w.probes = []probe{{w.queries[0].text, w.queries[0].text}}
		return w, nil
	case "join-agg", "dist-agg":
		w := &workload{}
		text, asWritten, all := joinAggText, joinAggAsWritten, joinAggAllText
		if name == "dist-agg" {
			text, asWritten, all = distText, distAsWritten, distAllText
			w.workers = 2
		}
		for _, q := range salaryCuts {
			x := 1000 + int(4000*q) + rng.Intn(40)
			w.queries = append(w.queries, query{text: fmt.Sprintf(text, x), ordered: true})
		}
		w.queries = append(w.queries, query{text: all, ordered: true})
		w.cycles = [][]int{rng.Perm(len(salaryCuts))}
		// Knobless forms: one filtered (the costing pass sizes its packets
		// for a third of emp) and one over the whole table.
		w.probes = []probe{
			{dropKnobs(w.queries[0].text), w.queries[0].text},
			{asWritten, all},
		}
		return w, nil
	case "sort-spill":
		w := &workload{frames: 256}
		w.queries = []query{{text: sortText, ordered: true}}
		w.cycles = [][]int{{0}}
		w.probes = []probe{{sortParallel, sortText}, {sortAsWritten, sortText}}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// pointKeys draws the point-lookup range starts: Zipf(s=1.1) ranks
// mapped through a seeded permutation of the ids, so the hot keys are
// spread over the index.
func pointKeys(seed int64, spec dataSpec) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x21ef))
	n := spec.EmpRows - 100
	perm := rng.Perm(n)
	z := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	keys := make([]int, 2*pointCycle)
	for i := range keys {
		keys[i] = perm[z.Uint64()]
	}
	return keys
}

// dropKnobs removes the exchange's producers= and packet= settings.
func dropKnobs(text string) string {
	var out []byte
	for i := 0; i < len(text); {
		if hasWord(text[i:], "producers=") || hasWord(text[i:], "packet=") {
			for i < len(text) && text[i] != ' ' {
				i++
			}
			i++ // the space after the knob
			continue
		}
		out = append(out, text[i])
		i++
	}
	return string(out)
}

func hasWord(s, w string) bool { return len(s) >= len(w) && s[:len(w)] == w }

// distinctTexts lists the texts a workload's cycles use, sorted.
func (w *workload) distinctTexts() []string {
	seen := map[int]bool{}
	for _, c := range w.cycles {
		for _, j := range c {
			seen[j] = true
		}
	}
	var out []string
	for j := range seen {
		out = append(out, w.queries[j].text)
	}
	sort.Strings(out)
	return out
}
