package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/record"
	"repro/internal/storage/file"
)

// The wire link: how an exchange producer runs on another machine. The
// sending side drains a subtree onto a connection (SendWire); the
// receiving side is an ordinary producer subtree of a core.Exchange — a
// WireSource that materialises each arriving frame into the consumer's
// buffer pool. Partitioning, flow control, packet pooling, end-of-stream
// counting and the shutdown handshake all stay in the one exchange.
//
// One frame carries one packet of record images as a length-prefixed
// binary message:
//
//	frame  := header payload
//	header := magic(4) flags(1) reserved(3) payloadLen(4)   big endian
//	payload (data frames)  := { recLen(4) recBytes(recLen) }*
//	payload (error frames) := utf-8 error message
//	payload (hello frames) := opaque handshake bytes (dist uses JSON)
//
// A frame with WireFlagEOS terminates one producer's stream on the
// connection; WireFlagErr marks the payload as an error message instead
// of records (EOS|Err is how a producer reports failure); WireFlagHello
// marks the connection-opening handshake frame the distributed layer
// uses to say which query/fragment/producer the connection carries.
const (
	wireMagic = 0x56574631 // "VWF1"

	// WireFlagEOS marks the sender's final frame on this stream.
	WireFlagEOS = 1 << 0
	// WireFlagErr marks the payload as an error message, not records.
	WireFlagErr = 1 << 1
	// WireFlagHello marks the handshake frame that opens a connection.
	WireFlagHello = 1 << 2

	wireHeaderLen = 12

	// MaxWireFrame bounds one frame's payload: a decoder never allocates
	// more than this no matter what the length prefix claims, so a
	// corrupt or hostile prefix cannot balloon memory.
	MaxWireFrame = 16 << 20
)

// WireFrame is one decoded frame. Recs windows into the frame's own
// arena (buf), which keeps its capacity across Decode calls — a reader
// reusing one WireFrame allocates only while the largest frame seen so
// far still grows.
type WireFrame struct {
	Flags byte
	Recs  [][]byte
	Msg   []byte // error message (WireFlagErr) or hello payload
	buf   []byte
}

// EOS reports whether this is the sender's final frame.
func (f *WireFrame) EOS() bool { return f.Flags&WireFlagEOS != 0 }

// Err returns the carried error, or nil. It wraps ErrWireRemote.
func (f *WireFrame) Err() error {
	if f.Flags&WireFlagErr == 0 || len(f.Msg) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrWireRemote, f.Msg)
}

// The two ways a wire stream ends in failure, told apart with errors.Is:
// the sender reported its subtree's error in an EOS|Err frame
// (ErrWireRemote — retrying elsewhere replays the same failure), or the
// stream ended without its EOS frame (ErrWireBroken — the peer or the
// connection went away, and the stream is incomplete, never short).
var (
	ErrWireRemote = errors.New("core: wire: remote producer failed")
	ErrWireBroken = errors.New("core: wire: stream broken before end-of-stream")

	errNoConn = errors.New("no connection attached")
)

// reset clears the frame for reuse, keeping arena capacity.
func (f *WireFrame) reset() {
	for i := range f.Recs {
		f.Recs[i] = nil
	}
	f.Recs = f.Recs[:0]
	f.Msg = nil
	f.buf = f.buf[:0]
	f.Flags = 0
}

// AppendWireFrame encodes one data frame carrying the record images and
// appends it to dst. flags must not include WireFlagErr or WireFlagHello
// (use AppendWireControl for those).
func AppendWireFrame(dst []byte, recs [][]byte, flags byte) []byte {
	payload := 0
	for _, r := range recs {
		payload += 4 + len(r)
	}
	dst = appendWireHeader(dst, flags, payload)
	for _, r := range recs {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(r)))
		dst = append(dst, r...)
	}
	return dst
}

// AppendWireControl encodes a control frame (error or hello) whose
// payload is an opaque message.
func AppendWireControl(dst []byte, flags byte, msg []byte) []byte {
	dst = appendWireHeader(dst, flags, len(msg))
	return append(dst, msg...)
}

func appendWireHeader(dst []byte, flags byte, payloadLen int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, wireMagic)
	dst = append(dst, flags, 0, 0, 0)
	return binary.BigEndian.AppendUint32(dst, uint32(payloadLen))
}

// WireError describes a malformed frame. It is distinct from transport
// errors (io.EOF and friends) so a receiver can tell "the peer went
// away" from "the peer is speaking garbage".
type WireError struct{ What string }

func (e *WireError) Error() string { return "core: wire: " + e.What }

// ReadWireFrame reads and decodes one frame from r into f, reusing f's
// arena. maxFrame bounds the payload a single frame may claim (0 means
// MaxWireFrame); a larger length prefix fails without allocating. A
// clean EOF before the first header byte returns io.EOF; a truncation
// anywhere later returns io.ErrUnexpectedEOF.
func ReadWireFrame(r io.Reader, f *WireFrame, maxFrame int) error {
	f.reset()
	if maxFrame <= 0 {
		maxFrame = MaxWireFrame
	}
	var hdr [wireHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return err // io.EOF here means a clean end of stream
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if got := binary.BigEndian.Uint32(hdr[0:4]); got != wireMagic {
		return &WireError{What: fmt.Sprintf("bad magic %#08x", got)}
	}
	flags := hdr[4]
	payloadLen := int(binary.BigEndian.Uint32(hdr[8:12]))
	if payloadLen > maxFrame {
		return &WireError{What: fmt.Sprintf("frame of %d bytes exceeds limit %d", payloadLen, maxFrame)}
	}
	if cap(f.buf) < payloadLen {
		f.buf = make([]byte, 0, payloadLen)
	}
	f.buf = f.buf[:payloadLen]
	if _, err := io.ReadFull(r, f.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if flags&(WireFlagErr|WireFlagHello) != 0 {
		f.Flags, f.Msg = flags, f.buf
		return nil
	}
	// Data frame: split the payload into record windows.
	rest := f.buf
	for len(rest) > 0 {
		if len(rest) < 4 {
			return &WireError{What: "truncated record length"}
		}
		n := int(binary.BigEndian.Uint32(rest))
		rest = rest[4:]
		if n > len(rest) {
			return &WireError{What: fmt.Sprintf("record of %d bytes overruns frame (%d left)", n, len(rest))}
		}
		f.Recs = append(f.Recs, rest[:n:n])
		rest = rest[n:]
	}
	f.Flags = flags
	return nil
}

// WireSender packs record images into frames of up to packetSize records
// on one writer — the producer half of a wire link. Each frame goes out
// as one Write as soon as it is complete, so the receiving pipeline never
// waits on a half-filled buffer, and there is never a syscall per
// record. Not safe for concurrent use; each producer goroutine owns one.
type WireSender struct {
	w          io.Writer
	packetSize int
	recs       [][]byte // windows into arena
	arena      []byte
	scratch    []byte

	frames, bytes int64
}

// NewWireSender wraps w. packetSize <= 0 uses the exchange default (83).
func NewWireSender(w io.Writer, packetSize int) *WireSender {
	if packetSize <= 0 {
		packetSize = 83
	}
	return &WireSender{w: w, packetSize: packetSize}
}

// Stats reports frames and payload bytes sent so far.
func (s *WireSender) Stats() (frames, bytes int64) { return s.frames, s.bytes }

// Hello sends the connection-opening handshake frame.
func (s *WireSender) Hello(payload []byte) error {
	s.scratch = AppendWireControl(s.scratch[:0], WireFlagHello, payload)
	return s.send()
}

// Add stages one record image; a full packet is framed and written.
// The image is copied into the sender's arena before Add returns, so
// the caller may release its pin immediately. Entries stay valid when a
// later append grows the arena: they keep referencing the earlier
// backing array, which still holds their bytes.
func (s *WireSender) Add(data []byte) error {
	off := len(s.arena)
	s.arena = append(s.arena, data...)
	s.recs = append(s.recs, s.arena[off:len(s.arena):len(s.arena)])
	if len(s.recs) >= s.packetSize {
		return s.flushData(0)
	}
	return nil
}

// CloseEOS flushes staged records and terminates the stream: a trailing
// EOS frame, carrying errMsg as an EOS|Err frame when non-empty.
func (s *WireSender) CloseEOS(errMsg string) error {
	if errMsg == "" {
		return s.flushData(WireFlagEOS)
	}
	if len(s.recs) > 0 {
		if err := s.flushData(0); err != nil {
			return err
		}
	}
	s.scratch = AppendWireControl(s.scratch[:0], WireFlagEOS|WireFlagErr, []byte(errMsg))
	return s.send()
}

// flushData frames the staged records (possibly zero of them, for a bare
// EOS) and writes the frame.
func (s *WireSender) flushData(flags byte) error {
	s.scratch = AppendWireFrame(s.scratch[:0], s.recs, flags)
	clear(s.recs)
	s.recs, s.arena = s.recs[:0], s.arena[:0]
	return s.send()
}

func (s *WireSender) send() error {
	if _, err := s.w.Write(s.scratch); err != nil {
		return err
	}
	s.frames++
	s.bytes += int64(len(s.scratch) - wireHeaderLen)
	return nil
}

// SendWire drains it onto the wire through s: the producer half of a
// wire link. It opens it, discards the first skip records (the prefix a
// resumed stream already delivered), stages every other record image,
// closes it, and ends the stream with an EOS frame — an error-EOS frame
// when the subtree failed. it is pulled through NextBatch refills of
// DefaultBatchSize records, and every pin is released exactly once,
// after its image is copied. The returned error is the local failure:
// the subtree's (already reported to the peer), or a transport error,
// after which no EOS is sent and the receiver sees a broken stream.
func SendWire(s *WireSender, it Iterator, skip int64) error {
	if err := it.Open(); err != nil {
		_ = s.CloseEOS(err.Error())
		return err
	}
	src, b := AsBatch(it), NewBatch(DefaultBatchSize)
	defer Recycle(b)
	var runErr, wireErr error
	for wireErr == nil {
		if runErr = src.NextBatch(b); runErr != nil || b.Len() == 0 {
			break
		}
		for _, r := range b.Recs() {
			if skip > 0 {
				skip--
			} else if wireErr = s.Add(r.Data); wireErr != nil {
				break
			}
		}
		b.Release()
	}
	if cerr := it.Close(); runErr == nil {
		runErr = cerr
	}
	switch {
	case wireErr != nil:
		return wireErr
	case runErr != nil:
		_ = s.CloseEOS(runErr.Error())
		return runErr
	}
	return s.CloseEOS("")
}

// WireSource is the receiving half of a wire link: an iterator that
// reads one producer's frames from a connection and materialises each
// data frame's record images into its Env's buffer pool (one
// WriteBytesBatch per frame), handing them out as pinned records. Used
// as a producer subtree of a core.Exchange, it puts a remote producer
// behind the exchange's ordinary protocol.
//
// A stream that ends with an error frame fails with ErrWireRemote; one
// that ends without its EOS frame fails with ErrWireBroken — never a
// short result. Attach switches to a new connection mid-stream (a
// resumed producer), appending to the same result file, so records
// already handed out stay valid until Close.
type WireSource struct {
	env    *Env
	schema *record.Schema
	w      *ResultWriter
	br     *bufio.Reader
	f      WireFrame
	recs   []Rec // the current frame, materialised; recs[pos:] not handed out
	pos    int
	eos    bool
	open   bool
	bytes  atomic.Int64

	mu      sync.Mutex // guards conn and the interrupt state against Interrupt
	conn    io.Closer
	stopped bool
	cause   error
}

// NewWireSource builds a source materialising records of schema into
// env, reading frames from r and closing c when done. r and c may both
// be nil when the first connection is attached later.
func NewWireSource(env *Env, schema *record.Schema, r io.Reader, c io.Closer) *WireSource {
	s := &WireSource{env: env, schema: schema, conn: c}
	if r != nil {
		s.br = bufio.NewReaderSize(r, 64<<10)
	}
	return s
}

// Attach reads the rest of the stream from r, closing the previous
// connection. Once the source is interrupted it closes c instead and
// fails with ErrWireBroken.
func (s *WireSource) Attach(r io.Reader, c io.Closer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		_ = c.Close()
		return ErrWireBroken
	}
	if s.conn != nil {
		_ = s.conn.Close()
	}
	s.br, s.conn, s.eos = bufio.NewReaderSize(r, 64<<10), c, false
	return nil
}

// Received reports the frame payload bytes read so far.
func (s *WireSource) Received() int64 { return s.bytes.Load() }

// Interrupt implements Interrupter: it closes the connection, so a read
// blocked on it returns. The stream then ends with cause, or cleanly
// when cause is nil.
func (s *WireSource) Interrupt(cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.stopped {
		s.stopped, s.cause = true, cause
		if s.conn != nil {
			_ = s.conn.Close()
		}
	}
}

// Schema implements Iterator.
func (s *WireSource) Schema() *record.Schema { return s.schema }

// Open implements Iterator.
func (s *WireSource) Open() error {
	if s.open {
		return errState("wire", "source already open")
	}
	w, err := s.env.NewResultWriter("wire", s.schema)
	if err != nil {
		return err
	}
	s.w, s.recs, s.pos, s.eos, s.open = w, s.recs[:0], 0, false, true
	return nil
}

// Next implements Iterator.
func (s *WireSource) Next() (Rec, bool, error) {
	if ok, err := s.more(); !ok {
		return Rec{}, false, err
	}
	r := s.recs[s.pos]
	s.recs[s.pos] = Rec{}
	s.pos++
	return r, true, nil
}

// NextBatch implements BatchIterator: up to one frame's records per call.
func (s *WireSource) NextBatch(b *Batch) error {
	b.Reset()
	if ok, err := s.more(); !ok {
		return err
	}
	end := min(len(s.recs), s.pos+b.Target())
	for i := s.pos; i < end; i++ {
		b.Append(s.recs[i])
		s.recs[i] = Rec{}
	}
	s.pos = end
	return nil
}

// more reads frames until a record is ready (true) or the stream ends.
func (s *WireSource) more() (bool, error) {
	if !s.open {
		return false, errState("wire", "source next before open")
	}
	for s.pos == len(s.recs) {
		if s.eos {
			return false, nil
		}
		if err := s.fill(); err != nil {
			return false, err
		}
	}
	return true, nil
}

// fill reads the next frame and materialises its records.
func (s *WireSource) fill() error {
	s.recs, s.pos = s.recs[:0], 0
	err := errNoConn
	if s.br != nil {
		err = ReadWireFrame(s.br, &s.f, 0)
	}
	s.mu.Lock()
	stopped, cause := s.stopped, s.cause
	s.mu.Unlock()
	switch {
	case stopped:
		s.eos = true
		return cause
	case err == io.EOF:
		return fmt.Errorf("%w: %w", ErrWireBroken, io.ErrUnexpectedEOF)
	case err != nil:
		return fmt.Errorf("%w: %w", ErrWireBroken, err)
	}
	s.bytes.Add(int64(len(s.f.buf)))
	s.env.Meter().WireRecv(len(s.f.buf))
	if err := s.f.Err(); err != nil {
		s.eos = true
		return err
	}
	if n := len(s.f.Recs); n > 0 {
		s.recs = slices.Grow(s.recs, n)[:n]
		if err := s.w.WriteBytesBatch(s.f.Recs, s.recs); err != nil {
			s.recs = s.recs[:0]
			return err
		}
	}
	s.eos = s.f.EOS()
	return nil
}

// Close implements Iterator: it releases records not yet handed out,
// closes the connection without reading the rest of the stream, and
// drops the result file. Records handed out must be released first.
func (s *WireSource) Close() error {
	if !s.open {
		return errState("wire", "source close before open")
	}
	s.open = false
	file.UnfixBatch(s.recs[s.pos:])
	clear(s.recs)
	s.recs, s.pos = s.recs[:0], 0
	s.Interrupt(nil)
	err := s.w.Dispose()
	s.w = nil
	return err
}
