package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// sample is one timed request.
type sample struct {
	query   int
	traced  bool
	ok      bool
	latency time.Duration
	err     string
	tr      *trailer // traced requests only
}

// loop drives a workload's clients against one server.
type loop struct {
	w      *workload
	url    string
	refs   []digest
	client *http.Client
	spans  *spanLog // nil when untraced
	runID  string
}

func newLoop(w *workload, addr string, refs []digest) *loop {
	tr := &http.Transport{MaxIdleConnsPerHost: len(w.cycles) + 1, DisableCompression: true}
	return &loop{w: w, url: "http://" + addr + "/query", refs: refs, client: &http.Client{Transport: tr}}
}

func (l *loop) close() { l.client.CloseIdleConnections() }

// do sends one request and checks its reply against the reference
// digest want. A non-empty id tags and traces the request.
func (l *loop) do(q query, want digest, id string) sample {
	s := sample{traced: id != ""}
	req, err := http.NewRequest(http.MethodPost, l.url, bytes.NewReader([]byte(q.text)))
	if err != nil {
		s.err = err.Error()
		return s
	}
	if s.traced {
		req.Header.Set("X-Volcano-Query-Id", id)
		req.Header.Set("X-Volcano-Analyze", "1")
	}
	start := time.Now()
	resp, err := l.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	s.latency = end.Sub(start)
	if err != nil {
		s.err = err.Error()
		return s
	}
	r, err := parseResponse(body)
	if err == nil {
		err = check(r, q, want)
	}
	if s.traced {
		s.tr = &r.tr
		l.spans.request(id, start, end, &r.tr)
	}
	if err != nil {
		s.err = fmt.Sprintf("HTTP %d: %v", resp.StatusCode, err)
		return s
	}
	s.ok = true
	return s
}

// run drives every client in a closed loop — each waits for its reply
// before sending the next request — over whole cycles of its mix until
// d has passed. With traced set, cycles alternate between untraced and
// traced (tagged with a query ID and X-Volcano-Analyze: 1), ending on a
// traced one, so both halves hold the same requests. It returns each
// client's samples and the loop's wall time.
func (l *loop) run(d time.Duration, traced bool) ([][]sample, time.Duration) {
	out := make([][]sample, len(l.w.cycles))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range l.w.cycles {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cyc := l.w.cycles[c]
			for n := 0; ; n++ {
				tagged := traced && n%2 == 1
				for i, qi := range cyc {
					id := ""
					if tagged {
						id = fmt.Sprintf("%s-c%d-n%d-i%d", l.runID, c, n, i)
					}
					s := l.do(l.w.queries[qi], l.refs[qi], id)
					s.query = qi
					out[c] = append(out[c], s)
				}
				if time.Since(t0) >= d && (!traced || n%2 == 1) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(t0)
}

// once sends every client's cycle once, concurrently, and reports the
// first failure.
func (l *loop) once() error {
	samples, _ := l.run(0, false)
	for _, cs := range samples {
		for _, s := range cs {
			if !s.ok {
				return fmt.Errorf("%q: %s", l.w.queries[s.query].text, s.err)
			}
		}
	}
	return nil
}
