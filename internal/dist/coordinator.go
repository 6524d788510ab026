package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// CoordinatorConfig configures the fragment-shipping coordinator.
type CoordinatorConfig struct {
	// DataAddr is the TCP address the data plane listens on (default
	// "127.0.0.1:0"). Workers dial it to deliver fragment streams.
	DataAddr string
	// AdvertiseAddr is the data-plane address put into dispatched
	// fragment specs; defaults to the listener's own address. Set it when
	// workers reach the coordinator through a different route.
	AdvertiseAddr string
	// MaxAttempts bounds dispatch attempts per fragment, first try
	// included (default 3).
	MaxAttempts int
	// HeartbeatEvery is the worker health-probe interval (default 2s).
	HeartbeatEvery time.Duration
	// ConnWait bounds how long a dispatched fragment may take to dial in
	// before the attempt counts as lost (default 10s).
	ConnWait time.Duration
	// Metrics, when non-nil, receives the volcano_dist_* families.
	Metrics *metrics.Registry
	// Log receives dispatch and worker-loss lines (nil = log.Default).
	Log *log.Logger
}

// Coordinator owns the worker registry and the data plane. It does not
// build plans itself: the serving layer hands each query's build a
// RemoteBinder (see Coordinator.Binder) and the coordinator supplies the
// producers of every distributable exchange cut the build reaches.
type Coordinator struct {
	cfg CoordinatorConfig
	m   *distMetrics
	ln  net.Listener

	mu      sync.Mutex
	workers map[string]*workerState
	order   []string // registration order, for round-robin
	next    int      // round-robin cursor
	routes  map[string]chan *routedConn
	closed  bool

	// dataConns counts routed data-plane connections not yet closed.
	dataConns atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

type workerState struct {
	addr      string
	live      bool
	fragments int64
	failures  int64
}

// routedConn is an accepted data-plane connection plus its buffered
// reader — the hello was read through the reader, and the frames behind
// it may already be buffered there, so both halves travel together. It
// counts in Coordinator.dataConns until its first Close.
type routedConn struct {
	net.Conn
	br   *bufio.Reader
	c    *Coordinator
	once sync.Once
}

func (rc *routedConn) Close() error {
	rc.once.Do(func() { rc.c.dataConns.Add(-1) })
	return rc.Conn.Close()
}

// NewCoordinator opens the data plane and starts the heartbeat loop.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.DataAddr == "" {
		cfg.DataAddr = "127.0.0.1:0"
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 2 * time.Second
	}
	if cfg.ConnWait <= 0 {
		cfg.ConnWait = 10 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = log.Default()
	}
	ln, err := net.Listen("tcp", cfg.DataAddr)
	if err != nil {
		return nil, fmt.Errorf("dist: data plane: %w", err)
	}
	if cfg.AdvertiseAddr == "" {
		cfg.AdvertiseAddr = ln.Addr().String()
	}
	c := &Coordinator{
		cfg:     cfg,
		m:       newDistMetrics(cfg.Metrics),
		ln:      ln,
		workers: map[string]*workerState{},
		routes:  map[string]chan *routedConn{},
		stop:    make(chan struct{}),
	}
	c.wg.Add(2)
	go c.acceptLoop()
	go c.heartbeatLoop()
	return c, nil
}

// DataAddr returns the data plane's listen address.
func (c *Coordinator) DataAddr() string { return c.ln.Addr().String() }

// Close stops the heartbeat loop and the data plane. In-flight queries
// see their pending routes fail.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	_ = c.ln.Close()
	c.wg.Wait()
}

// Register adds (or revives) a worker by dispatch address. Workers
// re-register periodically; that is idempotent.
func (c *Coordinator) Register(addr string) error {
	if addr == "" {
		return fmt.Errorf("dist: register: empty worker address")
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return fmt.Errorf("dist: register: bad worker address %q: %w", addr, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[addr]
	if !ok {
		w = &workerState{addr: addr}
		c.workers[addr] = w
		c.order = append(c.order, addr)
		c.m.workers.Set(int64(len(c.workers)))
	}
	if !w.live {
		w.live = true
		c.updateLiveLocked()
	}
	return nil
}

// Workers snapshots the registry for /debug/workers.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerInfo{Addr: w.addr, Live: w.live, Fragments: w.fragments, Failures: w.failures})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// LiveWorkers reports how many workers are currently passing heartbeats.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.workers {
		if w.live {
			n++
		}
	}
	return n
}

func (c *Coordinator) updateLiveLocked() {
	n := 0
	for _, w := range c.workers {
		if w.live {
			n++
		}
	}
	c.m.workersLive.Set(int64(n))
}

// pickWorker returns the next live worker round-robin, preferring any
// worker other than avoid (the one that just failed the fragment).
func (c *Coordinator) pickWorker(avoid string) *workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	var fallback *workerState
	for i := 0; i < len(c.order); i++ {
		w := c.workers[c.order[c.next%len(c.order)]]
		c.next++
		if !w.live {
			continue
		}
		if w.addr == avoid {
			fallback = w
			continue
		}
		return w
	}
	return fallback
}

// markLost records a dispatch failure against a worker and, because a
// lost fragment is strong evidence, takes the worker out of rotation
// until a heartbeat or re-registration revives it.
func (c *Coordinator) markLost(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[addr]; ok {
		w.failures++
		if w.live {
			w.live = false
			c.updateLiveLocked()
		}
	}
}

// heartbeatLoop probes every registered worker's /healthz.
func (c *Coordinator) heartbeatLoop() {
	defer c.wg.Done()
	// The probe deadline is floored well above the interval's lower
	// bounds: a worker busy streaming fragments answers /healthz slowly,
	// and a slow answer must not read as death.
	probeTimeout := c.cfg.HeartbeatEvery
	if probeTimeout < 2*time.Second {
		probeTimeout = 2 * time.Second
	}
	client := &http.Client{Timeout: probeTimeout}
	tick := time.NewTicker(c.cfg.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		c.mu.Lock()
		addrs := append([]string(nil), c.order...)
		c.mu.Unlock()
		for _, addr := range addrs {
			ok := false
			resp, err := client.Get("http://" + addr + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				ok = resp.StatusCode == http.StatusOK
			}
			if !ok {
				c.m.heartbeatKO.Inc()
			}
			c.mu.Lock()
			if w := c.workers[addr]; w != nil && w.live != ok {
				w.live = ok
				c.updateLiveLocked()
				if !ok {
					c.cfg.Log.Printf("dist: worker %s failed heartbeat", addr)
				}
			}
			c.mu.Unlock()
		}
	}
}

// routeKey identifies one expected fragment stream.
func routeKey(queryID, path string, producer, attempt int) string {
	return fmt.Sprintf("%s|%s|%d|%d", queryID, path, producer, attempt)
}

// expectConn registers interest in one fragment stream before its
// dispatch, so the arrival cannot race the registration.
func (c *Coordinator) expectConn(key string) chan *routedConn {
	ch := make(chan *routedConn, 1)
	c.mu.Lock()
	c.routes[key] = ch
	c.mu.Unlock()
	return ch
}

// forgetConn withdraws interest in the stream expectConn(key) returned
// ch for; a conn already delivered is closed. routeConn delivers under
// c.mu, so once the route is gone no delivery can still be on its way.
func (c *Coordinator) forgetConn(key string, ch chan *routedConn) {
	c.mu.Lock()
	delete(c.routes, key)
	c.mu.Unlock()
	select {
	case rc := <-ch:
		_ = rc.Close()
	default:
	}
}

// acceptLoop routes inbound data-plane connections by their hello frame.
func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go func(conn net.Conn) {
			defer c.wg.Done()
			c.routeConn(conn)
		}(conn)
	}
}

// dataRcvBuf caps the kernel receive buffer of each data-plane
// connection. TCP autotuning would otherwise grow it toward the system
// maximum (megabytes per connection), which both unbounds the
// coordinator's memory per in-flight fragment and lets a worker park an
// entire fragment stream in kernel buffers — flow control exists so
// producers run at most this far ahead of the consuming query, exactly
// like the in-process exchange's bounded queue depth.
const dataRcvBuf = 256 << 10

func (c *Coordinator) routeConn(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(dataRcvBuf)
	}
	_ = conn.SetReadDeadline(time.Now().Add(c.cfg.ConnWait))
	br := bufio.NewReaderSize(conn, 64<<10)
	var f core.WireFrame
	if err := core.ReadWireFrame(br, &f, 0); err != nil || f.Flags&core.WireFlagHello == 0 {
		c.m.helloRej.Inc()
		_ = conn.Close()
		return
	}
	var h Hello
	if err := json.Unmarshal(f.Msg, &h); err != nil {
		c.m.helloRej.Inc()
		_ = conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	key := routeKey(h.QueryID, h.Path, h.Producer, h.Attempt)
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := c.routes[key]
	if ch == nil {
		// Nobody is waiting: a stale attempt (already retried) or a
		// worker bug. Either way the stream has no consumer.
		c.m.helloRej.Inc()
		_ = conn.Close()
		return
	}
	delete(c.routes, key)
	c.dataConns.Add(1)
	ch <- &routedConn{Conn: conn, br: br, c: c} // buffered: one delivery per route
}

// dispatch POSTs one fragment spec to a worker. A transport failure or
// non-2xx acknowledgment is returned; retryability is the caller's call.
func (c *Coordinator) dispatch(ctx context.Context, worker string, spec FragmentSpec) error {
	body, _ := json.Marshal(spec)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+worker+"/fragment", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("dist: dispatch to %s: %w", worker, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := (&http.Client{Timeout: c.cfg.ConnWait}).Do(req)
	if err != nil {
		return fmt.Errorf("dist: dispatch to %s: %w", worker, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		if resp.StatusCode >= 500 {
			// The worker is unwell (stopping, overloaded), not refusing
			// this fragment in particular: worker-loss shaped, retryable
			// elsewhere.
			return fmt.Errorf("dist: worker %s unavailable (%d): %s", worker, resp.StatusCode, string(bytes.TrimSpace(msg)))
		}
		return &dispatchRejected{worker: worker, status: resp.StatusCode, msg: string(bytes.TrimSpace(msg))}
	}
	io.Copy(io.Discard, resp.Body)
	c.m.dispatched.Inc()
	c.mu.Lock()
	if w := c.workers[worker]; w != nil {
		w.fragments++
	}
	c.mu.Unlock()
	return nil
}

// dispatchRejected is a worker's synchronous refusal (4xx): the
// worker is alive and said no, so retrying the same spec elsewhere is
// pointless when the refusal is deterministic (bad plan, catalog skew).
type dispatchRejected struct {
	worker string
	status int
	msg    string
}

func (e *dispatchRejected) Error() string {
	return fmt.Sprintf("dist: worker %s rejected fragment (%d): %s", e.worker, e.status, e.msg)
}
