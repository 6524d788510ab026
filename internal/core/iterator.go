// Package core implements Volcano's query processing layer: the iterator
// (open-next-close) protocol with anonymous inputs, the full operator set
// of the paper (§1: scans, selection, sorting, two algorithms each for the
// binary matching operators, aggregation, duplicate elimination, relational
// division, ...), and the exchange operator that encapsulates all
// parallelism (§4).
package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/meter"
	"repro/internal/record"
	"repro/internal/storage/buffer"
	"repro/internal/storage/file"
)

// ResourceMeter accumulates one query's resource usage across every
// layer: buffer-pool fixes, device I/O, exchange and wire traffic, rows
// streamed, CPU time. It is an alias for the low-level meter type so the
// storage layer can account against it without importing core. A nil
// meter disables accounting everywhere.
type ResourceMeter = meter.Meter

// ResourceSnapshot is the plain-value copy of a ResourceMeter (the wire
// shape of the server's `resources` block).
type ResourceSnapshot = meter.Snapshot

// Rec is the element type of all streams: Volcano's NEXT_RECORD, a pinned
// buffer resident owned by exactly one operator at a time.
type Rec = file.Record

// Iterator is the uniform operator interface (paper, §3): every query
// processing algorithm supports open, next and close. Inputs are
// anonymous — an operator never knows whether its input is a file scan or
// a complex subtree, which is what makes operators freely composable and
// lets exchange splice in transparently.
//
// Next returns ok=false at end of stream. Each record returned transfers
// ownership of one buffer pin to the caller, which must Unfix it, hold it,
// or pass it on.
type Iterator interface {
	Open() error
	Next() (Rec, bool, error)
	Close() error
	// Schema describes the records the iterator produces.
	Schema() *record.Schema
}

// Env is the execution environment shared by the operators of a query:
// the buffer pool and a volume on a virtual device for intermediate
// results. All "processes" (goroutines) of a parallel query share one Env,
// mirroring the shared-memory architecture of the paper.
type Env struct {
	Pool *buffer.Pool
	Temp *file.Volume

	// meter, when set, attributes the resource usage of operators built
	// over this Env — temp-file spills in particular — to one query.
	meter *ResourceMeter

	// tmpSeq is shared between an Env and every meter-scoped derivation
	// (WithMeter), so temp names stay unique across concurrent queries.
	tmpSeq *atomic.Uint64
}

// NewEnv builds an Env over the given pool and temp volume. The temp
// volume should live on a virtual (Mem) device.
func NewEnv(pool *buffer.Pool, temp *file.Volume) *Env {
	return &Env{Pool: pool, Temp: temp, tmpSeq: new(atomic.Uint64)}
}

// WithMeter returns a derived Env attributing resource usage to m. The
// pool, temp volume and temp-name sequence are shared with the receiver;
// only the attribution differs. A nil meter returns the receiver.
func (e *Env) WithMeter(m *ResourceMeter) *Env {
	if m == nil {
		return e
	}
	return &Env{Pool: e.Pool, Temp: e.Temp, meter: m, tmpSeq: e.tmpSeq}
}

// Meter returns the meter usage is attributed to (nil = disabled).
func (e *Env) Meter() *ResourceMeter { return e.meter }

// TempName returns a fresh unique name for an intermediate-result file.
func (e *Env) TempName(prefix string) string {
	return fmt.Sprintf("%s.%d", prefix, e.tmpSeq.Add(1))
}

// CreateTemp creates an intermediate-result file on the temp volume. When
// the Env carries a meter the file's pool activity — the spill I/O of
// sort, hash join and aggregation — is attributed to it.
func (e *Env) CreateTemp(prefix string, schema *record.Schema) (*file.File, error) {
	return e.Temp.CreateWith(e.TempName(prefix), schema, e.meter)
}

// DropTemp deletes an intermediate-result file. All of its records must
// have been unpinned (paper, §4.1: "files on virtual devices must not be
// closed before all its records are unpinned in the buffer").
func (e *Env) DropTemp(f *file.File) error {
	if f == nil {
		return nil
	}
	return e.Temp.Delete(f.Name())
}

// Drain pulls all records from it (between Open and Close), unfixing each,
// and returns the count. Useful as a sink.
func Drain(it Iterator) (int, error) {
	if err := it.Open(); err != nil {
		return 0, err
	}
	n := 0
	for {
		r, ok, err := it.Next()
		if err != nil {
			_ = it.Close()
			return n, err
		}
		if !ok {
			break
		}
		r.Unfix()
		n++
	}
	return n, it.Close()
}

// Collect runs the iterator to completion and returns decoded rows; a
// convenience for tests, examples, and small result sets.
func Collect(it Iterator) ([][]record.Value, error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	s := it.Schema()
	var rows [][]record.Value
	for {
		r, ok, err := it.Next()
		if err != nil {
			_ = it.Close()
			return rows, err
		}
		if !ok {
			break
		}
		vals, err := s.Decode(r.Data)
		if err != nil {
			r.Unfix()
			_ = it.Close()
			return rows, err
		}
		for i := range vals {
			vals[i] = vals[i].Copy()
		}
		rows = append(rows, vals)
		r.Unfix()
	}
	return rows, it.Close()
}

// errState standardises the open/close protocol violations.
func errState(op, what string) error {
	return fmt.Errorf("core: %s: %s", op, what)
}
