package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
)

// Query lifecycle phases. A query passes through them in order; the
// registry records the wall time each one took so the phase breakdown in
// trailers, /debug/queries and the slow-query log all read the same
// numbers.
const (
	phasePlan    = "plan"    // parse/compile (or plan-cache hit)
	phaseQueued  = "queued"  // admission-control wait
	phaseExecute = "execute" // iterator build + Open (blocking operators run here)
	phaseStream  = "stream"  // row drain, client writes, trailer
)

// queryStates as reported by /debug/queries.
const (
	stateQueued    = int32(iota) // waiting for admission
	stateExecuting               // building/opening the iterator tree
	stateStreaming               // draining rows to the client
)

func stateName(s int32) string {
	switch s {
	case stateQueued:
		return "queued"
	case stateExecuting:
		return "executing"
	default:
		return "streaming"
	}
}

// queryRecord is one live query: its identity, lifecycle timings and —
// once the iterator tree exists — a handle on the live per-operator
// counters. Registration is per query; the only per-record touch on the
// streaming hot path is one atomic add (addRows), which allocates
// nothing (guarded by TestRegistryHotPathZeroAlloc).
type queryRecord struct {
	id       string
	source   string // normalized plan text
	cacheHit bool
	started  time.Time

	// entry is the plan-cache entry the query compiled through; /debug
	// views read its re-plan count. Nil when the cache is disabled.
	entry *cacheEntry

	state atomic.Int32
	rows  atomic.Int64 // rows streamed to the client so far

	// Phase durations in nanoseconds, each stored once when its phase
	// ends; zero means "not reached / still in it".
	planNs    atomic.Int64
	queuedNs  atomic.Int64
	executeNs atomic.Int64
	streamNs  atomic.Int64

	// analysis is set once the tree is built (stateExecuting) and never
	// replaced; the pointer is published atomically so /debug readers
	// racing the builder see nil or the complete value.
	analysis atomic.Pointer[plan.Analysis]

	// meter is the query's resource accounting: every engine layer the
	// build touches (buffer, device, exchange, result stream)
	// attributes into it. Embedded by value so registering a query costs
	// one allocation, not two.
	meter core.ResourceMeter
}

// resources returns the query's attributed resource usage. When the
// iterator tree exists the snapshot goes through the Analysis so the
// derived CPU time is current; before the build (rejections) the raw
// meter — all zeros but structurally valid — answers instead.
func (q *queryRecord) resources() core.ResourceSnapshot {
	if an := q.analysis.Load(); an != nil {
		return an.Resources()
	}
	return q.meter.Snapshot()
}

func (q *queryRecord) addRows(n int64) { q.rows.Add(n) }

// phases returns the phase breakdown in milliseconds, as served to
// clients. The phase currently in progress reads zero — /debug consumers
// infer it from state and elapsed instead of a half-told number.
func (q *queryRecord) phases() phaseMillis {
	return phaseMillis{
		PlanMs:    float64(q.planNs.Load()) / 1e6,
		QueuedMs:  float64(q.queuedNs.Load()) / 1e6,
		ExecuteMs: float64(q.executeNs.Load()) / 1e6,
		StreamMs:  float64(q.streamNs.Load()) / 1e6,
	}
}

// registry is the active-query set: every admitted-or-waiting query from
// ID assignment to trailer, keyed by query ID. It is the data source for
// GET /debug/queries and the volcano_server_queries_active gauge.
type registry struct {
	mu     sync.Mutex
	active map[string]*queryRecord

	m *serverMetrics
}

func newRegistry(m *serverMetrics) *registry {
	return &registry{active: make(map[string]*queryRecord), m: m}
}

// add registers a query under its ID. A duplicate ID is refused: two
// concurrent queries must never share an identity, or every downstream
// join (logs, traces, debug views) becomes ambiguous.
func (r *registry) add(q *queryRecord) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.active[q.id]; ok {
		return fmt.Errorf("server: query id %q is already active", q.id)
	}
	r.active[q.id] = q
	r.m.queriesActive.Inc()
	return nil
}

// remove unregisters a finished query.
func (r *registry) remove(id string) {
	r.mu.Lock()
	if _, ok := r.active[id]; ok {
		delete(r.active, id)
		r.m.queriesActive.Dec()
	}
	r.mu.Unlock()
}

// get returns the record for one active query.
func (r *registry) get(id string) (*queryRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	q, ok := r.active[id]
	return q, ok
}

// snapshot returns the active records ordered by start time (oldest
// first), so the debug view reads as a stable queue.
func (r *registry) snapshot() []*queryRecord {
	r.mu.Lock()
	out := make([]*queryRecord, 0, len(r.active))
	for _, q := range r.active {
		out = append(out, q)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].started.Equal(out[j].started) {
			return out[i].started.Before(out[j].started)
		}
		return out[i].id < out[j].id
	})
	return out
}

// len reports the number of active queries (tests).
func (r *registry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.active)
}

// newQueryID generates a fresh query identity: 8 random bytes, hex.
// Collisions across a process lifetime are vanishingly unlikely, and a
// collision among *active* queries is refused by registry.add anyway.
func newQueryID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to the
		// clock so queries still get distinct-enough identities.
		return fmt.Sprintf("q-%x", time.Now().UnixNano())
	}
	return "q-" + hex.EncodeToString(b[:])
}

// validQueryID accepts client-supplied IDs: 1..120 chars drawn from a
// URL- and log-safe alphabet. Anything else is a 400 — the ID is echoed
// into headers, JSON logs and debug URLs, so it must stay inert there.
func validQueryID(id string) bool {
	if len(id) == 0 || len(id) > 120 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '-' || c == '_' || c == '.' || c == ':':
		default:
			return false
		}
	}
	return true
}
