package core

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/record"
)

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

var aggNames = map[AggFunc]string{
	AggCount: "count", AggSum: "sum", AggMin: "min", AggMax: "max", AggAvg: "avg",
}

// String names the aggregate function.
func (a AggFunc) String() string { return aggNames[a] }

// AggSpec is one aggregate column: a function over an input field.
// AggCount ignores Field.
type AggSpec struct {
	Func  AggFunc
	Field int
	Name  string
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count int64
	sumI  int64
	sumF  float64
	minV  record.Value
	maxV  record.Value
	has   bool
}

func (a *aggState) add(v record.Value) {
	a.count++
	switch v.Kind {
	case record.TInt:
		a.sumI += v.I
		a.sumF += float64(v.I)
	case record.TFloat:
		a.sumF += v.F
	}
	if !a.has {
		a.minV, a.maxV, a.has = v.Copy(), v.Copy(), true
		return
	}
	if record.CompareValues(v, a.minV) < 0 {
		a.minV = v.Copy()
	}
	if record.CompareValues(v, a.maxV) > 0 {
		a.maxV = v.Copy()
	}
}

// result renders the aggregate output value.
func (a *aggState) result(f AggFunc, fieldType record.Type) record.Value {
	switch f {
	case AggCount:
		return record.Int(a.count)
	case AggSum:
		if fieldType == record.TFloat {
			return record.Float(a.sumF)
		}
		return record.Int(a.sumI)
	case AggMin:
		if !a.has {
			return record.Value{Kind: fieldType}
		}
		return a.minV
	case AggMax:
		if !a.has {
			return record.Value{Kind: fieldType}
		}
		return a.maxV
	case AggAvg:
		if a.count == 0 {
			return record.Float(math.NaN())
		}
		return record.Float(a.sumF / float64(a.count))
	}
	return record.Value{}
}

// aggOutputSchema builds the output schema: group fields then aggregates.
func aggOutputSchema(in *record.Schema, groupBy record.Key, aggs []AggSpec) (*record.Schema, error) {
	var fields []record.Field
	for _, g := range groupBy {
		if g < 0 || g >= in.NumFields() {
			return nil, fmt.Errorf("core: aggregate: group field %d out of range", g)
		}
		fields = append(fields, in.Field(g))
	}
	for i, a := range aggs {
		name := a.Name
		if name == "" {
			if a.Func == AggCount {
				name = "count"
			} else {
				name = fmt.Sprintf("%s_%s", a.Func, in.Field(a.Field).Name)
			}
		}
		var t record.Type
		switch a.Func {
		case AggCount:
			t = record.TInt
		case AggAvg:
			t = record.TFloat
		default:
			if a.Field < 0 || a.Field >= in.NumFields() {
				return nil, fmt.Errorf("core: aggregate: agg %d field out of range", i)
			}
			t = in.Field(a.Field).Type
			if a.Func == AggSum && t != record.TInt && t != record.TFloat {
				return nil, fmt.Errorf("core: aggregate: sum over non-numeric field %q", in.Field(a.Field).Name)
			}
		}
		fields = append(fields, record.Field{Name: name, Type: t})
	}
	return record.NewSchema(fields...)
}

// validateAggInput checks the agg field kinds.
func validateAggInput(in *record.Schema, aggs []AggSpec) error {
	for _, a := range aggs {
		if a.Func == AggCount {
			continue
		}
		if a.Field < 0 || a.Field >= in.NumFields() {
			return fmt.Errorf("core: aggregate: field %d out of range", a.Field)
		}
		t := in.Field(a.Field).Type
		if (a.Func == AggSum || a.Func == AggAvg) && t != record.TInt && t != record.TFloat {
			return fmt.Errorf("core: aggregate: %s over non-numeric field %q", a.Func, in.Field(a.Field).Name)
		}
	}
	return nil
}

// group is one aggregation group: a copy of its first input row's image,
// which supplies the group-by fields on output, and its accumulators.
type group struct {
	row    []byte
	states []aggState
}

// accumulate folds one input row into a group's aggregate states.
func accumulate(in *record.Schema, aggs []AggSpec, states []aggState, data []byte) error {
	for i, a := range aggs {
		if a.Func == AggCount {
			states[i].count++
			continue
		}
		v, err := in.Get(data, a.Field)
		if err != nil {
			return err
		}
		states[i].add(v)
	}
	return nil
}

// aggEncoder encodes aggregate output records into reused scratch: the
// group-by fields read from the group's row image, then each
// aggregate's result.
type aggEncoder struct {
	in      *record.Schema
	out     *record.Schema
	groupBy record.Key
	aggs    []AggSpec
	vals    []record.Value
	buf     []byte
}

// write materialises g's output record through w.
func (e *aggEncoder) write(w *ResultWriter, g *group) (Rec, error) {
	e.vals = e.vals[:0]
	for _, f := range e.groupBy {
		v, err := e.in.Get(g.row, f)
		if err != nil {
			return Rec{}, err
		}
		e.vals = append(e.vals, v)
	}
	for i, a := range e.aggs {
		var t record.Type
		if a.Func != AggCount {
			t = e.in.Field(a.Field).Type
		}
		e.vals = append(e.vals, g.states[i].result(a.Func, t))
	}
	var err error
	if e.buf, err = e.out.AppendEncode(e.buf[:0], e.vals); err != nil {
		return Rec{}, err
	}
	return w.WriteBytes(e.buf)
}

// HashAggregate is hash-based grouping and aggregation; with no aggregate
// specs it performs duplicate elimination on the group key. Groups are
// keyed on the encoded bytes of the group-by fields (Schema.AppendKey),
// so only a new group allocates.
type HashAggregate struct {
	env     *Env
	input   Iterator
	groupBy record.Key
	aggs    []AggSpec
	schema  *record.Schema

	w          *ResultWriter
	enc        aggEncoder
	groups     map[string]int // group key bytes -> index in order
	order      []group        // groups in first-seen order
	keyBuf     []byte         // scratch for one row's key bytes
	emit       int
	open       bool
	openFailed bool // Open ran and failed: next Close is a no-op
	batch      int
}

// NewHashAggregate constructs the operator.
func NewHashAggregate(env *Env, input Iterator, groupBy record.Key, aggs []AggSpec) (*HashAggregate, error) {
	if err := validateAggInput(input.Schema(), aggs); err != nil {
		return nil, err
	}
	schema, err := aggOutputSchema(input.Schema(), groupBy, aggs)
	if err != nil {
		return nil, err
	}
	return &HashAggregate{
		env: env, input: input, groupBy: groupBy, aggs: aggs, schema: schema,
		enc: aggEncoder{in: input.Schema(), out: schema, groupBy: groupBy, aggs: aggs},
	}, nil
}

// Schema implements Iterator.
func (h *HashAggregate) Schema() *record.Schema { return h.schema }

// Open implements Iterator: consumes the whole input, building groups.
func (h *HashAggregate) Open() error {
	if h.open {
		return errState("hashaggregate", "already open")
	}
	err := h.openImpl()
	h.openFailed = err != nil
	return err
}

func (h *HashAggregate) openImpl() error {
	w, err := h.env.NewResultWriter("hashagg", h.schema)
	if err != nil {
		return err
	}
	h.w = w
	h.groups = make(map[string]int)
	h.order = nil
	if err := h.input.Open(); err != nil {
		_ = h.w.Dispose()
		h.w = nil
		return err
	}
	src := inputSource(h.input, h.batch)
	for {
		r, ok, err := src.next()
		if err != nil {
			src.release()
			_ = h.input.Close()
			_ = h.w.Dispose()
			h.w = nil
			return err
		}
		if !ok {
			break
		}
		err = h.add(r.Data)
		r.Unfix()
		if err != nil {
			src.release()
			_ = h.input.Close()
			_ = h.w.Dispose()
			h.w = nil
			return err
		}
	}
	if err := h.input.Close(); err != nil {
		_ = h.w.Dispose()
		h.w = nil
		return err
	}
	h.emit = 0
	h.open = true
	return nil
}

// add folds one input row into its group, creating the group on first
// sight of its key.
func (h *HashAggregate) add(data []byte) error {
	in := h.input.Schema()
	key, err := in.AppendKey(h.keyBuf[:0], data, h.groupBy)
	if err != nil {
		return err
	}
	h.keyBuf = key
	gi, ok := h.groups[string(key)]
	if !ok {
		gi = len(h.order)
		h.groups[string(key)] = gi
		h.order = append(h.order, group{
			row:    append([]byte(nil), data...),
			states: make([]aggState, len(h.aggs)),
		})
	}
	return accumulate(in, h.aggs, h.order[gi].states, data)
}

// EnableBatch implements BatchConfigurable: Open consumes the input
// through batch refills of the given size.
func (h *HashAggregate) EnableBatch(size int) { h.batch = size }

// emitGroup materialises the next group's output record.
func (h *HashAggregate) emitGroup() (Rec, error) {
	g := &h.order[h.emit]
	h.emit++
	return h.enc.write(h.w, g)
}

// Next implements Iterator: emits one group per call, in first-seen order.
func (h *HashAggregate) Next() (Rec, bool, error) {
	if !h.open {
		return Rec{}, false, errState("hashaggregate", "next before open")
	}
	if h.emit >= len(h.order) {
		return Rec{}, false, nil
	}
	r, err := h.emitGroup()
	return r, err == nil, err
}

// Close implements Iterator.
func (h *HashAggregate) Close() error {
	if h.openFailed {
		// A failed Open already unwound this operator's state; the
		// standard drain path closes unconditionally, and a state error
		// here would mask the root cause.
		h.openFailed = false
		return nil
	}
	if !h.open {
		return errState("hashaggregate", "close before open")
	}
	h.open = false
	h.groups = nil
	h.order = nil
	err := h.w.Dispose()
	h.w = nil
	return err
}

// SortAggregate is the sort-based aggregation algorithm: the input must
// arrive sorted on the group-by fields; groups are emitted on key change,
// so the operator uses constant memory. A key change is detected by
// comparing the open group's key bytes with each row's, and the open
// group's buffers are reused from one group to the next.
type SortAggregate struct {
	env     *Env
	input   Iterator
	groupBy record.Key
	aggs    []AggSpec
	schema  *record.Schema

	w          *ResultWriter
	enc        aggEncoder
	cur        group  // the open group
	curKey     []byte // key bytes of the open group
	rowKey     []byte // scratch for the current row's key bytes
	inGroup    bool   // cur holds an open group
	done       bool
	open       bool
	openFailed bool // Open ran and failed: next Close is a no-op
	batch      int
	src        recSource
}

// NewSortAggregate constructs the operator over a sorted input.
func NewSortAggregate(env *Env, input Iterator, groupBy record.Key, aggs []AggSpec) (*SortAggregate, error) {
	if err := validateAggInput(input.Schema(), aggs); err != nil {
		return nil, err
	}
	schema, err := aggOutputSchema(input.Schema(), groupBy, aggs)
	if err != nil {
		return nil, err
	}
	return &SortAggregate{
		env: env, input: input, groupBy: groupBy, aggs: aggs, schema: schema,
		enc: aggEncoder{in: input.Schema(), out: schema, groupBy: groupBy, aggs: aggs},
		cur: group{states: make([]aggState, len(aggs))},
	}, nil
}

// Schema implements Iterator.
func (s *SortAggregate) Schema() *record.Schema { return s.schema }

// Open implements Iterator.
func (s *SortAggregate) Open() error {
	if s.open {
		return errState("sortaggregate", "already open")
	}
	err := s.openImpl()
	s.openFailed = err != nil
	return err
}

func (s *SortAggregate) openImpl() error {
	w, err := s.env.NewResultWriter("sortagg", s.schema)
	if err != nil {
		return err
	}
	if err := s.input.Open(); err != nil {
		_ = w.Dispose()
		return err
	}
	s.w = w
	s.inGroup = false
	s.done = false
	s.src = inputSource(s.input, s.batch)
	s.open = true
	return nil
}

// EnableBatch implements BatchConfigurable. The size also propagates to
// a batch-capable input — NewSortDistinct and the sort-based aggregation
// plans wrap the visible input in a hidden Sort that would otherwise
// stay row-at-a-time.
func (s *SortAggregate) EnableBatch(size int) {
	s.batch = size
	if bc, ok := s.input.(BatchConfigurable); ok {
		bc.EnableBatch(size)
	}
}

// Next implements Iterator.
func (s *SortAggregate) Next() (Rec, bool, error) {
	if !s.open {
		return Rec{}, false, errState("sortaggregate", "next before open")
	}
	return s.nextGroup()
}

// nextGroup emits the next finished group, consuming input until a key
// change or end of stream.
func (s *SortAggregate) nextGroup() (Rec, bool, error) {
	if s.done {
		return Rec{}, false, nil
	}
	in := s.input.Schema()
	for {
		r, ok, err := s.src.next()
		if err != nil {
			return Rec{}, false, err
		}
		if !ok {
			s.done = true
			if !s.inGroup {
				return Rec{}, false, nil
			}
			s.inGroup = false
			out, err := s.enc.write(s.w, &s.cur)
			return out, true, err
		}
		key, err := in.AppendKey(s.rowKey[:0], r.Data, s.groupBy)
		if err != nil {
			r.Unfix()
			return Rec{}, false, err
		}
		s.rowKey = key
		var finished Rec
		changed := s.inGroup && !bytes.Equal(key, s.curKey)
		if changed {
			// Key change: emit the finished group before its buffers
			// are reused for the group this row opens.
			if finished, err = s.enc.write(s.w, &s.cur); err != nil {
				r.Unfix()
				return Rec{}, false, err
			}
		}
		if changed || !s.inGroup {
			s.startGroup(r.Data)
		}
		err = accumulate(in, s.aggs, s.cur.states, r.Data)
		r.Unfix()
		if err != nil {
			if changed {
				finished.Unfix()
			}
			return Rec{}, false, err
		}
		if changed {
			return finished, true, nil
		}
	}
}

// startGroup opens a group at the row whose key bytes are in s.rowKey.
func (s *SortAggregate) startGroup(data []byte) {
	s.cur.row = append(s.cur.row[:0], data...)
	clear(s.cur.states)
	s.curKey, s.rowKey = s.rowKey, s.curKey
	s.inGroup = true
}

// Close implements Iterator.
func (s *SortAggregate) Close() error {
	if s.openFailed {
		// A failed Open already unwound this operator's state; the
		// standard drain path closes unconditionally, and a state error
		// here would mask the root cause.
		s.openFailed = false
		return nil
	}
	if !s.open {
		return errState("sortaggregate", "close before open")
	}
	s.open = false
	if s.src != nil {
		s.src.release()
		s.src = nil
	}
	err := s.input.Close()
	if derr := s.w.Dispose(); err == nil {
		err = derr
	}
	s.w = nil
	return err
}

// NewHashDistinct performs duplicate elimination on the whole tuple using
// the hash-based aggregation algorithm.
func NewHashDistinct(env *Env, input Iterator) (*HashAggregate, error) {
	return NewHashAggregate(env, input, allFields(input.Schema()), nil)
}

// NewSortDistinct performs duplicate elimination on the whole tuple using
// the sort-based algorithm; the input is wrapped in a Sort on all fields.
func NewSortDistinct(env *Env, input Iterator) (*SortAggregate, error) {
	key := allFields(input.Schema())
	spec := make([]record.SortSpec, len(key))
	for i, f := range key {
		spec[i] = record.SortSpec{Field: f}
	}
	return NewSortAggregate(env, NewSort(env, input, spec), key, nil)
}

func allFields(s *record.Schema) record.Key {
	key := make(record.Key, s.NumFields())
	for i := range key {
		key[i] = i
	}
	return key
}
