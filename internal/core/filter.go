package core

import (
	"repro/internal/expr"
	"repro/internal/record"
)

// Filter passes through input records satisfying a predicate support
// function; rejected records are unfixed immediately ("the operator can
// ... unfix it, e.g., when a predicate fails", paper §3). Filter creates
// no new records, so qualifying records flow through with their pins.
type Filter struct {
	input Iterator
	pred  expr.Predicate
	open  bool
	batch int
	src   recSource
}

// NewFilter wraps input with the given predicate.
func NewFilter(input Iterator, pred expr.Predicate) *Filter {
	return &Filter{input: input, pred: pred}
}

// NewFilterExpr compiles src against the input schema in the given support
// function mode and wraps input.
func NewFilterExpr(input Iterator, src string, mode expr.Mode) (*Filter, error) {
	pred, err := expr.ParsePredicate(src, input.Schema(), mode)
	if err != nil {
		return nil, err
	}
	return NewFilter(input, pred), nil
}

// Schema implements Iterator.
func (f *Filter) Schema() *record.Schema { return f.input.Schema() }

// Open implements Iterator.
func (f *Filter) Open() error {
	if f.open {
		return errState("filter", "already open")
	}
	if err := f.input.Open(); err != nil {
		return err
	}
	f.src = inputSource(f.input, f.batch)
	f.open = true
	return nil
}

// Next implements Iterator.
func (f *Filter) Next() (Rec, bool, error) {
	if !f.open {
		return Rec{}, false, errState("filter", "next before open")
	}
	for {
		r, ok, err := f.src.next()
		if err != nil || !ok {
			return Rec{}, false, err
		}
		keep, err := f.pred(r.Data)
		if err != nil {
			r.Unfix()
			return Rec{}, false, err
		}
		if keep {
			return r, true, nil
		}
		r.Unfix()
	}
}

// EnableBatch implements BatchConfigurable: Next pulls the input
// through batch refills of the given size.
func (f *Filter) EnableBatch(size int) { f.batch = size }

// Close implements Iterator.
func (f *Filter) Close() error {
	if !f.open {
		return errState("filter", "close before open")
	}
	f.open = false
	f.src.release()
	f.src = nil
	return f.input.Close()
}

// Project computes new records from input records using projection support
// functions, materialising the output in the buffer via a virtual file
// (new records must be fixed before being passed on) and unfixing inputs.
type Project struct {
	env    *Env
	input  Iterator
	proj   expr.Projector
	schema *record.Schema
	w      *ResultWriter

	batch int
	src   recSource
}

// NewProject builds a projection from expressions with optional output
// names.
func NewProject(env *Env, input Iterator, exprs []expr.Expr, names []string, mode expr.Mode) (*Project, error) {
	proj, out, err := expr.NewProjector(exprs, names, input.Schema(), mode)
	if err != nil {
		return nil, err
	}
	return &Project{env: env, input: input, proj: proj, schema: out}, nil
}

// NewProjectExprs parses the given expression sources and builds a
// projection.
func NewProjectExprs(env *Env, input Iterator, srcs []string, names []string, mode expr.Mode) (*Project, error) {
	exprs := make([]expr.Expr, len(srcs))
	for i, s := range srcs {
		e, err := expr.Parse(s)
		if err != nil {
			return nil, err
		}
		exprs[i] = e
	}
	return NewProject(env, input, exprs, names, mode)
}

// Schema implements Iterator.
func (p *Project) Schema() *record.Schema { return p.schema }

// Open implements Iterator.
func (p *Project) Open() error {
	if p.w != nil {
		return errState("project", "already open")
	}
	w, err := p.env.NewResultWriter("project", p.schema)
	if err != nil {
		return err
	}
	if err := p.input.Open(); err != nil {
		_ = w.Dispose()
		return err
	}
	p.w = w
	p.src = inputSource(p.input, p.batch)
	return nil
}

// Next implements Iterator.
func (p *Project) Next() (Rec, bool, error) {
	if p.w == nil {
		return Rec{}, false, errState("project", "next before open")
	}
	r, ok, err := p.src.next()
	if err != nil || !ok {
		return Rec{}, false, err
	}
	vals, err := p.proj(r.Data)
	if err != nil {
		r.Unfix()
		return Rec{}, false, err
	}
	out, err := p.w.Write(vals)
	r.Unfix()
	if err != nil {
		return Rec{}, false, err
	}
	return out, true, nil
}

// EnableBatch implements BatchConfigurable.
func (p *Project) EnableBatch(size int) { p.batch = size }

// Close implements Iterator.
func (p *Project) Close() error {
	if p.w == nil {
		return errState("project", "close before open")
	}
	p.src.release()
	p.src = nil
	err := p.input.Close()
	if derr := p.w.Dispose(); err == nil {
		err = derr
	}
	p.w = nil
	return err
}
