package server

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMidStreamDisconnectStress is the abandonment stress test: clients
// start heavy parallel queries, read a little of the stream, and hang up.
// Each disconnect cancels the request context, which closes the plan's
// Done channel; exchange producers abandon their subtrees between records
// and the Close handshake (the shutdown machinery) reaps them. After
// every wave the shared pool must be pin-balanced and the process back at
// its goroutine baseline — nothing may survive an abandoned query.
func TestMidStreamDisconnectStress(t *testing.T) {
	s, w, ts, mr := newTestServer(t, func(c *Config) {
		c.MaxConcurrent = 6
		c.MaxProducers = 32
	})
	_ = s

	// The cross join under a non-partitioned exchange: each producer runs
	// its own copy of the join, so this streams ~2M rows through the full
	// producer/consumer protocol — no client reads more than a few KB.
	const q = "with p2 = scan pairs2\nscan pairs | join hash p2 on a = c | exchange producers=2 packet=7"

	client := &http.Client{}
	baseline := runtime.NumGoroutine()
	const waves, perWave = 3, 4
	for wave := 0; wave < waves; wave++ {
		errs := make(chan error, perWave)
		for i := 0; i < perWave; i++ {
			go func() {
				resp, err := client.Post(ts.URL+"/query", "text/plain", strings.NewReader(q))
				if err != nil {
					errs <- err
					return
				}
				// Read a slice of the stream mid-flight, then vanish.
				_, err = io.ReadAtLeast(resp.Body, make([]byte, 8<<10), 8<<10)
				resp.Body.Close()
				errs <- err
			}()
		}
		for i := 0; i < perWave; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("wave %d: %v", wave, err)
			}
		}
		// The handlers notice the hangup asynchronously; wait for the
		// server to report idle before checking invariants.
		inFlight := mr.Gauge("volcano_server_in_flight", "")
		waitFor(t, 20*time.Second, "abandoned queries to tear down", func() bool {
			return inFlight.Value() == 0
		})
		checkQuiesced(t, w, fmt.Sprintf("after wave %d", wave))
	}

	if got := mr.Counter("volcano_server_canceled_total", "").Value(); got != waves*perWave {
		t.Errorf("canceled counter = %d, want %d", got, waves*perWave)
	}
	client.CloseIdleConnections()
	waitFor(t, 10*time.Second, "goroutines to return to baseline", func() bool {
		return runtime.NumGoroutine() <= baseline+4
	})
}
