package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
)

// BindRequest is the per-query context a Coordinator needs to take over
// a plan's exchange cuts. The serving layer fills one per query and
// installs Coordinator.Binder(req) as BuildOptions.Remote.
type BindRequest struct {
	// QueryID must be unique among in-flight queries: it keys the
	// data-plane routing of fragment streams back to this query.
	QueryID string
	// Source is the normalized plan text (Template.Source); workers
	// recompile it to reach the fragment by position.
	Source string
	// Root is the compiled tree the build walks (Template.Root).
	Root *plan.Node
	// CatalogVersion travels in every dispatch; workers on a different
	// catalog epoch reject it.
	CatalogVersion string
	// Env and Cat build probe instances (fragment schemas) and
	// materialise arriving records.
	Env *core.Env
	Cat plan.Catalog
	// Meter, when non-nil, is billed for the wire traffic and temp-file
	// activity the remote cuts cause on the coordinator.
	Meter *core.ResourceMeter
	// Summary, when non-nil, accumulates fragment stats and wire bytes
	// for the query's trailer and EXPLAIN ANALYZE.
	Summary *Summary
}

// Binder returns the plan.RemoteBinder for one query: offered a
// distributable exchange cut, it supplies the exchange's producers —
// producer g is a fragment that runs g's subtree on the worker fleet and
// reads its stream back over the data plane. The exchange itself stays
// on the coordinator. With no live workers the binder declines and the
// plan builds locally.
func (c *Coordinator) Binder(req BindRequest) plan.RemoteBinder {
	if req.Summary == nil {
		req.Summary = &Summary{}
	}
	return func(path string, n *plan.Node) (func(int) (core.Iterator, error), bool, error) {
		if c.LiveWorkers() == 0 {
			return nil, false, nil
		}
		env := req.Env
		if env != nil && req.Meter != nil {
			env = env.WithMeter(req.Meter)
		}
		// A probe of producer 0's subtree gives the schema crossing the
		// cut, which the wire sources need before any worker dials in.
		probe, err := plan.BuildFragmentProducer(env, req.Cat, req.Root, path, 0, plan.BuildOptions{})
		if err != nil {
			return nil, false, fmt.Errorf("dist: fragment %q schema probe: %w", path, err)
		}
		schema := probe.Schema()
		resumable := plan.Deterministic(n.Inputs[0])
		return func(g int) (core.Iterator, error) {
			f := &fragment{
				WireSource: core.NewWireSource(env, schema, nil, nil),
				c:          c,
				req:        req,
				path:       path,
				g:          g,
				resumable:  resumable,
				state:      "running",
			}
			f.ctx, f.cancel = context.WithCancelCause(context.Background())
			req.Summary.addFrag(f.stat)
			return f, nil
		}, true, nil
	}
}

// Summary accumulates one query's distributed-execution facts for its
// trailer and EXPLAIN ANALYZE output. All methods are nil-safe.
type Summary struct {
	// WireRecv is fragment payload bytes received on the data plane.
	WireRecv atomic.Int64
	// Retries counts fragment re-dispatches after worker loss.
	Retries atomic.Int64

	mu  sync.Mutex
	fns []func() plan.FragmentStat
}

func (s *Summary) addFrag(fn func() plan.FragmentStat) {
	s.mu.Lock()
	s.fns = append(s.fns, fn)
	s.mu.Unlock()
}

// StatFuncs returns the live per-fragment stat closures (for wiring into
// an Analysis via AddFragment).
func (s *Summary) StatFuncs() []func() plan.FragmentStat {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]func() plan.FragmentStat(nil), s.fns...)
}

// Fragments snapshots every fragment's current stats.
func (s *Summary) Fragments() []plan.FragmentStat {
	fns := s.StatFuncs()
	out := make([]plan.FragmentStat, len(fns))
	for i, fn := range fns {
		out[i] = fn()
	}
	return out
}

// fragment is producer g of a remote exchange cut: the exchange's input
// for that producer. It dispatches g's subtree to a worker, awaits the
// worker's dial-in, and reads the stream through its core.WireSource.
// When the worker is lost mid-stream it re-dispatches with Skip set to
// the records already returned to the exchange. One goroutine — the
// exchange producer's — does all of it, so that count is exact.
type fragment struct {
	*core.WireSource
	c         *Coordinator
	req       BindRequest
	path      string
	g         int
	resumable bool

	ctx    context.Context // canceled by Interrupt, with its cause
	cancel context.CancelCauseFunc

	lastWorker string
	accounted  int64        // wire bytes already billed to summary and metrics
	delivered  atomic.Int64 // records returned to the exchange

	mu       sync.Mutex // guards the stat fields below for live readers
	worker   string
	attempts int
	state    string // running | done | failed
}

// Open dispatches the first attempt and waits for its stream.
func (f *fragment) Open() error {
	if err := f.WireSource.Open(); err != nil {
		return err
	}
	if err := f.connect(nil); err != nil {
		f.cancel(nil)
		_ = f.WireSource.Close()
		return err
	}
	return nil
}

func (f *fragment) Next() (core.Rec, bool, error) {
	for {
		r, ok, err := f.WireSource.Next()
		switch {
		case err != nil:
			if err = f.recover(err); err != nil {
				return core.Rec{}, false, err
			}
		case ok:
			f.delivered.Add(1)
			return r, true, nil
		default:
			f.end("done")
			return core.Rec{}, false, nil
		}
	}
}

func (f *fragment) NextBatch(b *core.Batch) error {
	for {
		err := f.WireSource.NextBatch(b)
		switch {
		case err != nil:
			if err = f.recover(err); err != nil {
				return err
			}
		case b.Len() > 0:
			f.delivered.Add(int64(b.Len()))
			return nil
		default:
			f.end("done")
			return nil
		}
	}
}

// Close drops the stream without reading the rest of it.
func (f *fragment) Close() error {
	f.end("failed")
	f.cancel(nil)
	return f.WireSource.Close()
}

// Interrupt implements core.Interrupter: a pending dispatch, dial-in
// wait or blocked read returns at once.
func (f *fragment) Interrupt(cause error) {
	f.cancel(cause)
	f.WireSource.Interrupt(cause)
}

// interrupted reports whether the exchange interrupted the fragment, and
// with what: a nil cause means its consumers closed and the stream may
// end cleanly.
func (f *fragment) interrupted() (bool, error) {
	cause := context.Cause(f.ctx)
	if cause == context.Canceled {
		return true, nil
	}
	return cause != nil, cause
}

// end leaves the running state: for state, or as failed when the
// fragment was interrupted. It settles the wire bytes billed so far.
func (f *fragment) end(state string) {
	n := f.Received()
	f.req.Summary.WireRecv.Add(n - f.accounted)
	f.c.m.wireRecv.Add(n - f.accounted)
	f.accounted = n
	if stopped, _ := f.interrupted(); stopped {
		state = "failed"
	}
	f.mu.Lock()
	if f.state == "running" {
		f.state = state
	}
	f.mu.Unlock()
}

// fail ends the fragment with err. A failure the exchange asked for (an
// interrupt) is not counted as a fragment failure.
func (f *fragment) fail(err error) error {
	f.end("failed")
	if stopped, _ := f.interrupted(); !stopped {
		f.c.m.failures.Inc()
	}
	return err
}

// recover turns a broken stream into a re-dispatch; any other error
// ends the fragment.
func (f *fragment) recover(err error) error {
	if stopped, _ := f.interrupted(); stopped || !errors.Is(err, core.ErrWireBroken) {
		if errors.Is(err, core.ErrWireRemote) {
			err = fmt.Errorf("dist: fragment %s producer %d on %s: %w", f.path, f.g, f.lastWorker, err)
		}
		return f.fail(err)
	}
	f.c.markLost(f.lastWorker)
	return f.connect(fmt.Errorf("dist: fragment %s producer %d: connection to %s lost before EOS: %v",
		f.path, f.g, f.lastWorker, err))
}

// connect runs dispatch attempts until a worker's stream is attached or
// the retry budget is spent. cause is why the previous attempt ended
// (nil for the first connect).
func (f *fragment) connect(cause error) error {
	for {
		f.mu.Lock()
		attempt := f.attempts + 1
		if attempt <= f.c.cfg.MaxAttempts {
			f.attempts = attempt
		}
		f.mu.Unlock()
		if attempt > f.c.cfg.MaxAttempts {
			return f.fail(fmt.Errorf("dist: fragment %s producer %d: lost after %d attempts: %v", f.path, f.g, f.attempts, cause))
		}
		skip := f.delivered.Load()
		if attempt > 1 {
			if !f.resumable && skip > 0 {
				return f.fail(fmt.Errorf("dist: fragment %s producer %d: worker lost mid-stream and fragment is not resumable (nested exchange): %v",
					f.path, f.g, cause))
			}
			f.c.m.retries.Inc()
			f.req.Summary.Retries.Add(1)
			f.c.cfg.Log.Printf("dist: query %s fragment %s/%d: retrying (attempt %d, skip %d): %v",
				f.req.QueryID, f.path, f.g, attempt, skip, cause)
		}
		err, retryable := f.attempt(attempt, skip)
		if stopped, cause := f.interrupted(); stopped {
			f.end("failed")
			return cause
		}
		switch {
		case err == nil:
			return nil
		case !retryable:
			return f.fail(err)
		}
		cause = err
	}
}

// attempt dispatches one attempt and attaches its stream. retryable
// marks worker-loss shaped failures as eligible for another attempt.
func (f *fragment) attempt(attempt int, skip int64) (err error, retryable bool) {
	key := routeKey(f.req.QueryID, f.path, f.g, attempt)
	ch := f.c.expectConn(key)
	w := f.c.pickWorker(f.lastWorker)
	if w == nil {
		f.c.forgetConn(key, ch)
		return fmt.Errorf("dist: fragment %s producer %d: no live workers", f.path, f.g), false
	}
	spec := FragmentSpec{
		QueryID:        f.req.QueryID,
		Plan:           f.req.Source,
		CatalogVersion: f.req.CatalogVersion,
		Path:           f.path,
		Producer:       f.g,
		Attempt:        attempt,
		Skip:           skip,
		Endpoint:       f.c.cfg.AdvertiseAddr,
	}
	if derr := f.c.dispatch(f.ctx, w.addr, spec); derr != nil {
		f.c.forgetConn(key, ch)
		var rej *dispatchRejected
		if errors.As(derr, &rej) || f.ctx.Err() != nil {
			return derr, false
		}
		f.c.markLost(w.addr)
		return derr, true
	}
	f.lastWorker = w.addr
	f.mu.Lock()
	f.worker = w.addr
	f.mu.Unlock()

	timer := time.NewTimer(f.c.cfg.ConnWait)
	defer timer.Stop()
	select {
	case rc := <-ch:
		// Attach fails only once the fragment is interrupted.
		return f.Attach(rc.br, rc), false
	case <-timer.C:
		f.c.forgetConn(key, ch)
		f.c.markLost(w.addr)
		return fmt.Errorf("dist: fragment %s producer %d: worker %s accepted but never dialed in", f.path, f.g, w.addr), true
	case <-f.ctx.Done():
		f.c.forgetConn(key, ch)
		return f.ctx.Err(), false
	}
}

func (f *fragment) stat() plan.FragmentStat {
	f.mu.Lock()
	defer f.mu.Unlock()
	return plan.FragmentStat{
		Path:      f.path,
		Producer:  f.g,
		Worker:    f.worker,
		Attempts:  f.attempts,
		Records:   f.delivered.Load(),
		WireBytes: f.Received(),
		State:     f.state,
	}
}
