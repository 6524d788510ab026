package core

import (
	"fmt"

	"repro/internal/record"
)

// MatchOp selects which operation the one-to-one match operator performs.
// The one-to-one match generalises all binary matching operators (paper
// §1 lists two algorithms each for natural join, semi-join, outer join,
// anti-join, union, intersection, difference, anti-difference): every
// operation is a choice of which tuple classes — matched, left-only,
// right-only — appear in the output, and in what form.
type MatchOp int

// Match operations.
const (
	// MatchJoin outputs one combined record per matching pair.
	MatchJoin MatchOp = iota
	// MatchSemi outputs each left record with at least one match.
	MatchSemi
	// MatchAnti outputs each left record with no match (anti-join).
	MatchAnti
	// MatchLeftOuter is join plus unmatched left records padded with
	// zero values on the right (Volcano has no SQL NULL).
	MatchLeftOuter
	// MatchRightOuter is join plus unmatched right records padded left.
	MatchRightOuter
	// MatchFullOuter is join plus both unmatched sides, padded.
	MatchFullOuter
	// MatchUnion outputs the set union of the two inputs (same schema;
	// keys should cover the whole tuple for set semantics).
	MatchUnion
	// MatchIntersect outputs the distinct tuples present in both inputs.
	MatchIntersect
	// MatchDifference outputs the distinct left tuples with no match
	// (L − R).
	MatchDifference
	// MatchAntiDifference outputs the distinct right tuples with no match
	// (R − L).
	MatchAntiDifference
)

var matchOpNames = map[MatchOp]string{
	MatchJoin: "join", MatchSemi: "semijoin", MatchAnti: "antijoin",
	MatchLeftOuter: "leftouter", MatchRightOuter: "rightouter", MatchFullOuter: "fullouter",
	MatchUnion: "union", MatchIntersect: "intersect",
	MatchDifference: "difference", MatchAntiDifference: "antidifference",
}

// String names the operation.
func (op MatchOp) String() string { return matchOpNames[op] }

// combinesSchemas reports whether the output is the concatenation of both
// input schemas.
func (op MatchOp) combinesSchemas() bool {
	switch op {
	case MatchJoin, MatchLeftOuter, MatchRightOuter, MatchFullOuter:
		return true
	}
	return false
}

// sameSchemas reports whether the operation requires equal input schemas.
func (op MatchOp) sameSchemas() bool {
	switch op {
	case MatchUnion, MatchIntersect:
		return true
	}
	return false
}

// matchOutputSchema computes the output schema of a match operation.
func matchOutputSchema(op MatchOp, left, right *record.Schema) (*record.Schema, error) {
	if op.sameSchemas() && !left.Equal(right) {
		return nil, fmt.Errorf("core: %s requires equal schemas, got %s and %s", op, left, right)
	}
	switch {
	case op.combinesSchemas():
		return left.Concat(right), nil
	case op == MatchAntiDifference:
		return right, nil
	default:
		return left, nil
	}
}

// splicer builds the combined output records of the joins from record
// images: it splices the two inputs' images into one reused buffer
// (record.AppendConcat) and materialises the result, so no input is
// decoded. Outer-join padding splices the missing side's zero image —
// every number zero, every boolean false, every string empty — which is
// a fixed area of zero bytes, built once per operator.
type splicer struct {
	ls, rs       *record.Schema
	lzero, rzero []byte
	buf          []byte
}

func newSplicer(ls, rs *record.Schema) splicer {
	return splicer{ls: ls, rs: rs, lzero: make([]byte, ls.FixedLen()), rzero: make([]byte, rs.FixedLen())}
}

// splice returns the combined image of l and r. It aliases the
// splicer's buffer and is valid until the next call.
func (s *splicer) splice(l, r []byte) ([]byte, error) {
	var err error
	s.buf, err = record.AppendConcat(s.buf[:0], s.ls, l, s.rs, r)
	return s.buf, err
}

// join writes the combined record of l and r through w.
func (s *splicer) join(w *ResultWriter, l, r []byte) (Rec, error) {
	img, err := s.splice(l, r)
	if err != nil {
		return Rec{}, err
	}
	return w.WriteBytes(img)
}

// padRight writes l joined with a zero right side.
func (s *splicer) padRight(w *ResultWriter, l []byte) (Rec, error) { return s.join(w, l, s.rzero) }

// padLeft writes r joined with a zero left side.
func (s *splicer) padLeft(w *ResultWriter, r []byte) (Rec, error) { return s.join(w, s.lzero, r) }

// recQueue is the FIFO of output records a match operator has produced
// but not yet returned. Popping advances a head index, and a drained
// queue rewinds to empty, so one array serves every probe.
type recQueue struct {
	recs []Rec
	head int
}

func (q *recQueue) push(r Rec) { q.recs = append(q.recs, r) }

func (q *recQueue) pop() (Rec, bool) {
	if q.head == len(q.recs) {
		return Rec{}, false
	}
	r := q.recs[q.head]
	q.head++
	if q.head == len(q.recs) {
		q.recs, q.head = q.recs[:0], 0
	}
	return r, true
}

// release unfixes every queued record and drops the array.
func (q *recQueue) release() {
	for _, r := range q.recs[q.head:] {
		r.Unfix()
	}
	*q = recQueue{}
}

// keysEqual verifies key equality between a left and right record (hash
// matches must be confirmed, hashes can collide).
func keysEqual(ls *record.Schema, l []byte, lk record.Key, rs *record.Schema, r []byte, rk record.Key) bool {
	return record.CompareKeys(ls, l, lk, rs, r, rk) == 0
}
