package core

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/record"
	"repro/internal/storage/file"
	"repro/internal/trace"
)

// tcpPair returns the two ends of one TCP loopback connection.
func tcpPair(t testing.TB) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return client, server
}

// wireExchange builds an exchange whose producers run on the far side
// of TCP connections: one sender goroutine per producer drains
// newSubtree(g) onto its own connection through SendWire (wrap, when
// set, wraps the sending end), and producer g is a WireSource over
// connection g materialising into dst. wait joins the senders and
// returns their errors.
func wireExchange(t testing.TB, dst *Env, cfg ExchangeConfig, packet int, wrap func(net.Conn) net.Conn, newSubtree func(int) Iterator) (x *Exchange, wait func() []error) {
	t.Helper()
	servers := make([]net.Conn, cfg.Producers)
	errs := make([]error, cfg.Producers)
	var wg sync.WaitGroup
	for g := range servers {
		client, server := tcpPair(t)
		servers[g] = server
		if wrap != nil {
			client = wrap(client)
		}
		in := newSubtree(g)
		wg.Add(1)
		go func(g int, conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			errs[g] = SendWire(NewWireSender(conn, packet), in, 0)
		}(g, client)
	}
	cfg.Schema = intSchema
	cfg.NewProducer = func(g int) (Iterator, error) {
		return NewWireSource(dst, intSchema, servers[g], servers[g]), nil
	}
	x, err := NewExchange(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return x, func() []error { wg.Wait(); return errs }
}

// subtrees returns a subtree builder scanning f, filtered by preds[g]
// when predicates are given.
func subtrees(t testing.TB, f *file.File, preds ...string) func(int) Iterator {
	return func(g int) Iterator {
		sc, err := NewFileScan(f, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(preds) == 0 {
			return sc
		}
		it, err := NewFilterExpr(sc, preds[g], 0)
		if err != nil {
			t.Fatal(err)
		}
		return it
	}
}

func sendersOK(t testing.TB, wait func() []error) {
	t.Helper()
	for g, err := range wait() {
		if err != nil {
			t.Fatalf("sender %d: %v", g, err)
		}
	}
}

// checkClean asserts no pins outstanding on any machine and no exchange
// producer goroutine left running.
func checkClean(t testing.TB, envs ...*testEnv) {
	t.Helper()
	for _, e := range envs {
		e.checkNoPinLeak(t)
	}
	if n := xmProducersLive.Load(); n != 0 {
		t.Fatalf("%d producer goroutines still live", n)
	}
}

// TestNetExchangeBetweenMachines: two producers on machine A ship their
// records over the wire into machine B's buffer pool, where an ordinary
// exchange fans them in; the consumer tree on B sorts what arrives.
func TestNetExchangeBetweenMachines(t *testing.T) {
	a, b := newTestEnv(t, 256), newTestEnv(t, 256)
	f := a.makeInts(t, "t", shuffled(2000, 11)...)
	x, wait := wireExchange(t, b.Env, ExchangeConfig{Producers: 2, Consumers: 1}, 0, nil,
		subtrees(t, f, "v % 2 = 0", "v % 2 = 1"))
	rows, err := Collect(NewSort(b.Env, x.Consumer(0), []record.SortSpec{{Field: 0}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2000 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r[0].I != int64(i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	sendersOK(t, wait)
	if st := x.Stats(); st.Packets == 0 || st.Records != 2000 {
		t.Fatalf("exchange stats over the wire: %+v", st)
	}
	checkClean(t, a, b)
}

// TestNetExchangeOverTCP: a four-producer fan-in over TCP yields exactly
// the rows of the same fan-in run locally.
func TestNetExchangeOverTCP(t *testing.T) {
	src, dst := newTestEnv(t, 256), newTestEnv(t, 256)
	f := src.makeInts(t, "t", shuffled(3000, 21)...)
	sub := subtrees(t, f, "v % 4 = 0", "v % 4 = 1", "v % 4 = 2", "v % 4 = 3")
	local, err := NewExchange(ExchangeConfig{
		Schema: intSchema, Producers: 4, Consumers: 1,
		NewProducer: func(g int) (Iterator, error) { return sub(g), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Collect(local.Consumer(0))
	if err != nil {
		t.Fatal(err)
	}
	x, wait := wireExchange(t, dst.Env, ExchangeConfig{Producers: 4, Consumers: 1, FlowControl: true}, 16, nil, sub)
	got, err := Collect(x.Consumer(0))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := sortedVals(got), sortedVals(want); strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("wire fan-in returned %d rows, local %d, or different values", len(a), len(b))
	}
	sendersOK(t, wait)
	checkClean(t, src, dst)
}

// TestNetExchangeOverTCPOrdered: each producer's records cross the wire
// intact, complete and in order, in many small frames, both through
// Next and through NextBatch.
func TestNetExchangeOverTCPOrdered(t *testing.T) {
	for _, batch := range []int{0, 5} {
		src, dst := newTestEnv(t, 256), newTestEnv(t, 256)
		const per = 500
		vals := make([]int64, 3*per)
		for i := range vals {
			vals[i] = int64(i)
		}
		f := src.makeInts(t, "t", vals...)
		x, wait := wireExchange(t, dst.Env, ExchangeConfig{Producers: 3, Consumers: 1, PacketSize: 5, BatchSize: batch}, 7, nil,
			subtrees(t, f, "v < 500", "v >= 500 and v < 1000", "v >= 1000"))
		rows, err := collect(x.Consumer(0), batch)
		if err != nil || len(rows) != 3*per {
			t.Fatalf("batch %d: %d rows, err %v", batch, len(rows), err)
		}
		next := []int64{0, per, 2 * per}
		for i, r := range rows {
			g := r[0].I / per
			if r[0].I != next[g] {
				t.Fatalf("batch %d: row %d = %d, producer %d expected %d next", batch, i, r[0].I, g, next[g])
			}
			next[g]++
		}
		sendersOK(t, wait)
		checkClean(t, src, dst)
	}
}

// TestNetExchangeErrorPropagation: a producer failure crosses the wire
// as an error frame and surfaces on the consumer as ErrWireRemote —
// distinguishable from a broken stream.
func TestNetExchangeErrorPropagation(t *testing.T) { testRemoteError(t, 0) }

// TestNetExchangeOverTCPErrorPropagation is the batch-mode twin: the
// records before the failure are delivered, then the remote error.
func TestNetExchangeOverTCPErrorPropagation(t *testing.T) { testRemoteError(t, 2) }

func testRemoteError(t *testing.T, batch int) {
	src, dst := newTestEnv(t, 256), newTestEnv(t, 256)
	f := src.makeInts(t, "t", 1, 2, 3, 0, 4)
	x, wait := wireExchange(t, dst.Env, ExchangeConfig{Producers: 1, Consumers: 1, BatchSize: batch}, 1, nil, subtrees(t, f, "10 / v > 0"))
	_, err := collect(x.Consumer(0), batch)
	if !strings.Contains(fmt.Sprint(err), "division by zero") || !errors.Is(err, ErrWireRemote) || errors.Is(err, ErrWireBroken) {
		t.Fatalf("batch %d: got %v, want the remote division by zero as ErrWireRemote only", batch, err)
	}
	if errs := wait(); errs[0] == nil {
		t.Fatal("sender reported no local failure")
	}
	checkClean(t, src, dst)
}

// dyingConn kills its connection after a byte budget, modelling a
// producer whose machine drops off the network mid-stream.
type dyingConn struct {
	net.Conn
	budget int
}

func (d *dyingConn) Write(p []byte) (int, error) {
	if len(p) > d.budget {
		n, _ := d.Conn.Write(p[:d.budget])
		d.budget = 0
		d.Conn.Close()
		return n, errors.New("wire cut")
	}
	d.budget -= len(p)
	return d.Conn.Write(p)
}

// TestNetExchangeOverTCPDroppedConnection: a connection that dies before
// its EOS frame is a query error (ErrWireBroken), never a short result,
// and the teardown leaves no pins and no live producers on either side.
func TestNetExchangeOverTCPDroppedConnection(t *testing.T) {
	for _, batch := range []int{0, 7} {
		src, dst := newTestEnv(t, 256), newTestEnv(t, 256)
		f := src.makeInts(t, "t", shuffled(5000, 23)...)
		cut := func(c net.Conn) net.Conn { return &dyingConn{Conn: c, budget: 4096} }
		x, wait := wireExchange(t, dst.Env, ExchangeConfig{Producers: 2, Consumers: 1, BatchSize: batch, FlowControl: true}, 50, cut, subtrees(t, f))
		n, err := Drain(x.Consumer(0))
		if err == nil {
			t.Fatalf("batch %d: dropped connection folded into EOS: drained %d rows with no error", batch, n)
		}
		if !errors.Is(err, ErrWireBroken) || errors.Is(err, ErrWireRemote) {
			t.Fatalf("batch %d: transport failure %v: want ErrWireBroken and not ErrWireRemote", batch, err)
		}
		for g, err := range wait() {
			if err == nil {
				t.Fatalf("batch %d: sender %d did not see the cut", batch, g)
			}
		}
		checkClean(t, src, dst)
	}
}

// TestNetExchangeEarlyCloseInterrupts: closing the consumer does not wait
// out a silent remote stream — the exchange interrupts the producer's
// blocked read, the stream ends without an error, and nothing stays
// pinned or running. A closed Done channel does the same, with
// ErrCanceled.
func TestNetExchangeEarlyCloseInterrupts(t *testing.T) {
	for _, cancel := range []bool{false, true} {
		dst := newTestEnv(t, 64)
		stall, _ := net.Pipe() // a remote producer that never sends
		done := make(chan struct{})
		x, err := NewExchange(ExchangeConfig{
			Schema: intSchema, Producers: 1, Consumers: 1, Done: done,
			NewProducer: func(int) (Iterator, error) {
				return NewWireSource(dst.Env, intSchema, stall, stall), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		c := x.Consumer(0)
		if err := c.Open(); err != nil {
			t.Fatal(err)
		}
		if cancel {
			close(done)
			if _, _, err := c.Next(); !errors.Is(err, ErrCanceled) {
				t.Fatalf("canceled consumer: got %v, want ErrCanceled", err)
			}
		}
		if err := c.Close(); cancel != errors.Is(err, ErrCanceled) || (!cancel && err != nil) {
			t.Fatalf("cancel=%v: Close = %v", cancel, err)
		}
		checkClean(t, dst)
	}
}

// TestNetExchangePacketRecycling: wire-fed producers push through the
// exchange's own packet free list, with the same pairing and warm-up
// invariants as a local scan.
func TestNetExchangePacketRecycling(t *testing.T) {
	src, dst := newTestEnv(t, 512), newTestEnv(t, 512)
	const n = 8000
	f := src.makeInts(t, "t", shuffled(n, 22)...)
	x, wait := wireExchange(t, dst.Env, ExchangeConfig{Producers: 2, Consumers: 1, PacketSize: 10, FlowControl: true}, 0, nil, subtrees(t, f))
	if count, err := Drain(x.Consumer(0)); err != nil || count != 2*n {
		t.Fatalf("drained %d of %d, err %v", count, 2*n, err)
	}
	sendersOK(t, wait)
	st := x.Stats()
	if st.PoolHits == 0 || st.PoolHits+st.PoolMisses != st.Packets || st.PoolMisses*4 > st.Packets {
		t.Fatalf("pool %d hits + %d misses for %d packets: want hit-dominated, paired gets", st.PoolHits, st.PoolMisses, st.Packets)
	}
	checkClean(t, src, dst)
}

// TestNetExchangeTraceProtocol: a wire-fed exchange records the same
// protocol trace as a local one — producer start, packet push/pop flow
// arrows, end-of-stream tags and the shutdown handshake.
func TestNetExchangeTraceProtocol(t *testing.T) {
	src, dst := newTestEnv(t, 256), newTestEnv(t, 256)
	f := src.makeInts(t, "t", shuffled(400, 13)...)
	tr := trace.New()
	x, wait := wireExchange(t, dst.Env, ExchangeConfig{Producers: 2, Consumers: 1, PacketSize: 16, Tracer: tr}, 16, nil, subtrees(t, f))
	if rows, err := Collect(x.Consumer(0)); err != nil || len(rows) != 800 {
		t.Fatalf("%d rows, err %v", len(rows), err)
	}
	sendersOK(t, wait)
	names := traceNames(tr)
	for _, want := range []string{"producer-start", "push", "pop", "eos", "produce", "allow-close", "close-subtree"} {
		if names[want] == 0 {
			t.Errorf("no %q event recorded; got %v", want, names)
		}
	}
}

// TestNetExchangeValidation pins the wire source's iterator protocol and
// its interrupt contract.
func TestNetExchangeValidation(t *testing.T) {
	dst := newTestEnv(t, 64)
	s := NewWireSource(dst.Env, intSchema, nil, nil)
	if _, _, err := s.Next(); err == nil {
		t.Error("Next before Open succeeded")
	}
	if err := s.Close(); err == nil {
		t.Error("Close before Open succeeded")
	}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if err := s.Open(); err == nil {
		t.Error("second Open succeeded")
	}
	if _, _, err := s.Next(); !errors.Is(err, ErrWireBroken) {
		t.Errorf("Next with no connection: %v, want ErrWireBroken", err)
	}
	s.Interrupt(ErrCanceled)
	conn, _ := net.Pipe()
	if err := s.Attach(conn, conn); !errors.Is(err, ErrWireBroken) {
		t.Errorf("Attach after Interrupt: %v, want ErrWireBroken", err)
	}
	if err := conn.SetReadDeadline(time.Now()); err != io.ErrClosedPipe {
		t.Error("Attach after Interrupt left the new connection open")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	dst.checkNoPinLeak(t)
}

// collect drains it through Next, or through NextBatch refills of batch
// records when batch > 0.
func collect(it Iterator, batch int) ([][]record.Value, error) {
	if batch > 0 {
		return CollectBatch(it, batch)
	}
	return Collect(it)
}

// sortedVals renders single-int rows as sorted strings.
func sortedVals(rows [][]record.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r[0].String()
	}
	sort.Strings(out)
	return out
}
