package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// opLine is one operator of an EXPLAIN ANALYZE report as the server
// embeds it in the trailer (X-Volcano-Analyze: 1).
type opLine struct {
	depth  int
	op     string // scan, iscan, filter, project, join, agg, sort, exchange, or the first word of another operator
	rows   int64
	total  time.Duration // open + next + close
	inputs []*opLine

	// Exchange nodes only.
	packets, poolHits, poolMisses int64
	stall, wait                   time.Duration
}

// opTotals accumulates one report's per-operator figures.
type opTotals struct {
	self   map[string]time.Duration
	rowsIn map[string]int64

	packets, poolHits, poolMisses int64
	stall, wait                   time.Duration
	exchangeTime                  time.Duration // open+next+close of every exchange
}

// opNames maps the first word of an operator line to the name the
// benchmark reports it under.
var opNames = map[string]string{
	"scan": "scan", "pscan": "scan", "iscan": "iscan", "filter": "filter",
	"project": "project", "join": "join", "aggregate": "agg", "sort": "sort",
	"exchange": "exchange",
}

// parseAnalyze reads the operator tree of an EXPLAIN ANALYZE report and
// totals it per operator kind. Self time follows the engine's own CPU
// attribution: an operator's open+next+close minus its inputs', except
// that an exchange subtracts the time its consumer waited instead,
// because its inputs run on producer goroutines. A source's rows in are
// the rows it read.
func parseAnalyze(report string) (opTotals, error) {
	t := opTotals{self: map[string]time.Duration{}, rowsIn: map[string]int64{}}
	var stack []*opLine
	var roots []*opLine
	for _, line := range strings.Split(report, "\n") {
		trimmed := strings.TrimLeft(line, " ")
		depth := (len(line) - len(trimmed)) / 2
		switch {
		case strings.HasPrefix(trimmed, "{packets="):
			if len(stack) == 0 || stack[len(stack)-1].op != "exchange" {
				return t, fmt.Errorf("exchange counters without an exchange: %q", line)
			}
			if err := parseExchangeLine(stack[len(stack)-1], trimmed); err != nil {
				return t, err
			}
			continue
		case !strings.Contains(trimmed, "  [rows="):
			continue // header, footer, choose-plan decision
		}
		n, err := parseOpLine(trimmed)
		if err != nil {
			return t, err
		}
		n.depth = depth
		for len(stack) > 0 && stack[len(stack)-1].depth >= depth {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			roots = append(roots, n)
		} else {
			p := stack[len(stack)-1]
			p.inputs = append(p.inputs, n)
		}
		stack = append(stack, n)
	}
	var walk func(n *opLine)
	walk = func(n *opLine) {
		own := n.total
		var in int64
		for _, c := range n.inputs {
			in += c.rows
			if n.op != "exchange" {
				own -= c.total
			}
			walk(c)
		}
		if n.op == "exchange" {
			own -= n.wait
			t.packets += n.packets
			t.poolHits += n.poolHits
			t.poolMisses += n.poolMisses
			t.stall += n.stall
			t.wait += n.wait
			t.exchangeTime += n.total
		}
		if len(n.inputs) == 0 {
			in = n.rows
		}
		if own > 0 {
			t.self[n.op] += own
		}
		t.rowsIn[n.op] += in
	}
	for _, r := range roots {
		walk(r)
	}
	return t, nil
}

// parseOpLine reads "DESCRIPTION  [rows=R calls=C opens=O open=D next=D close=D ...]".
func parseOpLine(s string) (*opLine, error) {
	desc, stats, _ := strings.Cut(s, "  [")
	word, _, _ := strings.Cut(desc, " ")
	n := &opLine{op: word}
	if name, ok := opNames[word]; ok {
		n.op = name
	}
	for _, kv := range strings.Fields(strings.TrimSuffix(stats, "]")) {
		k, v, _ := strings.Cut(kv, "=")
		var err error
		switch k {
		case "rows":
			n.rows, err = strconv.ParseInt(v, 10, 64)
		case "open", "next", "close":
			var d time.Duration
			d, err = time.ParseDuration(v)
			n.total += d
		}
		if err != nil {
			return nil, fmt.Errorf("operator line %q: %w", s, err)
		}
	}
	return n, nil
}

// parseExchangeLine reads "{packets=P records=R forks=F pool=Hh/Mm/Dd stall=D wait=D}".
func parseExchangeLine(n *opLine, s string) error {
	for _, kv := range strings.Fields(strings.Trim(s, "{}")) {
		k, v, _ := strings.Cut(kv, "=")
		var err error
		switch k {
		case "packets":
			n.packets, err = strconv.ParseInt(v, 10, 64)
		case "pool":
			_, err = fmt.Sscanf(v, "%dh/%dm/", &n.poolHits, &n.poolMisses)
		case "stall":
			n.stall, err = time.ParseDuration(v)
		case "wait":
			n.wait, err = time.ParseDuration(v)
		}
		if err != nil {
			return fmt.Errorf("exchange line %q: %w", s, err)
		}
	}
	return nil
}
