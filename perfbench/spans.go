package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer, or a phase the
// server reported for that call. Spans of one request share its query ID;
// Parent is the index of the causing span within that query's list (-1
// for a root).
type span struct {
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	StartMs float64 `json:"start_ms"` // since the log was created
	EndMs   float64 `json:"end_ms"`
	Parent  int     `json:"parent"`
}

// spanLog keeps spans in memory, keyed by query ID, until the run ends.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans map[string][]span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now(), spans: map[string][]span{}} }

func (l *spanLog) ms(t time.Time) float64 { return float64(t.Sub(l.t0)) / 1e6 }

// add records a span and returns its index within its query's list.
func (l *spanLog) add(id string, s span) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id] = append(l.spans[id], s)
	return len(l.spans[id]) - 1
}

// timed runs fn inside a span of the given layer.
func (l *spanLog) timed(id, layer, name string, fn func() error) error {
	start := time.Now()
	err := fn()
	l.add(id, span{Name: name, Layer: layer, StartMs: l.ms(start), EndMs: l.ms(time.Now()), Parent: -1})
	return err
}

// request records a /query call: the client-side span around the HTTP
// exchange, and beneath it the server's lifecycle phases from the
// trailer, laid end to end from the request's start.
func (l *spanLog) request(id string, start, end time.Time, tr *trailer) {
	root := l.add(id, span{Name: "POST /query", Layer: "server", StartMs: l.ms(start), EndMs: l.ms(end), Parent: -1})
	if tr.Phases == nil {
		return
	}
	at := l.ms(start)
	for _, ph := range []struct {
		name string
		ms   float64
	}{
		{"plan", tr.Phases.PlanMs}, {"queued", tr.Phases.QueuedMs},
		{"execute", tr.Phases.ExecuteMs}, {"stream", tr.Phases.StreamMs},
	} {
		l.add(id, span{Name: ph.name, Layer: "server", StartMs: at, EndMs: at + ph.ms, Parent: root})
		at += ph.ms
	}
}

// write saves every span as one JSON object keyed by query ID.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
