package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// TCP framing (format v1).
//
// Every frame is a 13-byte header — 4-byte big-endian body length,
// 1-byte frame type (frameMsg or frameResp), 8-byte big-endian request
// id — followed by the body: one wire.Msg or wire.Resp in the binary
// codec of internal/wire (whose own leading byte is wire.FormatVersion).
//
// Connections are multiplexed: many calls are in flight on one
// connection at once, each tagged with a connection-scoped request id.
// On the client a writer goroutine drains the connection's queue and
// writes every queued frame in one writev-style flush (net.Buffers), and
// a reader goroutine demuxes responses to the waiting callers by id; the
// server mirrors the same structure with a handler goroutine per
// request.
//
// Payloads cross the user/kernel boundary once on each side. A frame is
// a small pooled buffer holding the frame header and the Msg/Resp
// header (wire's AppendHeaderTo), followed in the writev vector by the
// sender's own payload slices — never copied into a frame buffer. A
// reply whose caller named a destination (wire.Msg.SetReplyBuf) has its
// header decoded out of the buffered reader and its payload read
// straight into that destination; every other body lands in a pooled
// buffer the decoded message aliases. The ownership rules that make the
// borrowing safe are at muxConn.settle (client) and serveConn (server).
//
// A peer still speaking the retired gob framing fails the frame-type or
// codec-version check and the connection is torn down with an error
// wrapping wire.ErrBadFormat — mixed gob/binary deployments are
// unsupported (docs/OPERATIONS.md).

const (
	maxFrameSize    = 64 << 20 // refuse absurd frames rather than OOM
	frameHeaderSize = 13
	frameMsg        = 0x01
	frameResp       = 0x02
)

// writeStallBudget bounds how long one flush may block on a peer that
// stopped draining its socket. A multiplexed connection cannot borrow
// any single call's deadline (other calls share the pipe), so this
// conn-level backstop is what keeps a hung peer from wedging the writer
// goroutine — and with it every future call on the connection — forever.
const writeStallBudget = 2 * time.Minute

// maxInflightPerConn caps concurrently executing handlers per server
// connection. The reader stops pulling frames once the cap is reached,
// so a flooding client is throttled by TCP backpressure instead of
// unbounded handler goroutines.
const maxInflightPerConn = 256

// pooledBufCap is the largest buffer capacity returned to the frame
// buffer pool; one-off giant frames are left for the collector instead
// of pinning their capacity forever.
const pooledBufCap = 4 << 20

// settleGrace bounds how long a call leaving early (cancelled, or failed
// with its connection) waits for the writer or reader to let go of its
// borrowed buffers before failing the connection to make them let go;
// see muxConn.settle. A healthy peer finishes any flush or payload read
// far inside it.
const settleGrace = 100 * time.Millisecond

// connReadBufSize is the buffered-reader size both read loops use. Only
// frame headers and sub-splice bodies are ever copied through it; see
// readBody.
const connReadBufSize = 256 << 10

// spliceThreshold is the body size at which readBody bypasses the
// buffered reader: the already-buffered prefix is drained, then the
// remainder is read straight off the socket into the destination
// buffer. Payload-class frames (KWriteBlock shards, KBlockFetch
// replies) are copied exactly once; control-sized frames stay on the
// buffered path so they keep amortizing syscalls.
const spliceThreshold = 32 << 10

// framePool recycles the buffers whole inbound bodies are read into:
// every request on the server, and replies the client cannot read into
// a named destination.
var framePool = sync.Pool{New: func() any { return new([]byte) }} // sized on first use

func getFrameBuf() *[]byte { return framePool.Get().(*[]byte) }

func putFrameBuf(b *[]byte) { putBuf(&framePool, b) }

// putBuf returns a buffer to its pool, unless it is a one-off giant.
func putBuf(pool *sync.Pool, b *[]byte) {
	if b == nil || cap(*b) > pooledBufCap {
		return
	}
	*b = (*b)[:0]
	pool.Put(b)
}

// replyPool recycles the buffers handlers fill with reply payloads
// (ReplyBuf). It is apart from framePool so a payload-sized reply buffer
// is not spent on a small request body, nor the reverse.
var replyPool = sync.Pool{New: func() any { return new([]byte) }} // sized on first use

// ReplyBuf lends a handler a buffer of n bytes from the reply pool to
// fill with a reply's payload, and the release that returns it. The
// handler attaches the release to the reply that carries the buffer
// (wire.Resp.AttachRelease) and from then on the transport owns both:
// the TCP server runs the release once the reply's frame is flushed or
// dropped, and in process the caller's Resp.Release runs it. A handler
// that ends up not replying with the buffer runs the release itself.
func ReplyBuf(n int) ([]byte, func()) {
	b := replyPool.Get().(*[]byte)
	if cap(*b) < n {
		*b = make([]byte, n)
	}
	*b = (*b)[:n]
	return *b, newBufRelease(&replyPool, b, &poolOutstanding)
}

// headerPool recycles the buffers outbound frames are encoded into. A
// frame buffer holds only the frame header and the Msg/Resp header — a
// few hundred bytes — so it never grows with the payload, and keeping
// it apart from framePool keeps a payload-sized body buffer from being
// spent on a header.
var headerPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

func getHeaderBuf() *[]byte { return headerPool.Get().(*[]byte) }

func putHeaderBuf(b *[]byte) {
	if b == nil || cap(*b) > pooledBufCap {
		return
	}
	*b = (*b)[:0]
	headerPool.Put(b)
}

// readerPool recycles the connection read buffers across connections
// and redials. A drain or outage churns every connection to a node;
// without the pool each redial allocated a fresh 256 KiB buffer.
var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, connReadBufSize) }}

func getReader(conn io.Reader) *bufio.Reader {
	r := readerPool.Get().(*bufio.Reader)
	r.Reset(conn)
	return r
}

func putReader(r *bufio.Reader) {
	r.Reset(nil) // a pooled reader pins no socket
	readerPool.Put(r)
}

// writeScratch is the reusable per-flush state of a writer goroutine:
// the writev vector and (client side) the per-frame sizes used to roll
// sent marks back after a failed flush. Held for the connection's
// lifetime and pooled across connections and redials.
type writeScratch struct {
	bufs  net.Buffers
	sizes []int64
}

var scratchPool = sync.Pool{New: func() any { return new(writeScratch) }}

func getScratch() *writeScratch { return scratchPool.Get().(*writeScratch) }

func putScratch(s *writeScratch) {
	for i := range s.bufs {
		s.bufs[i] = nil // do not pin frame buffers from the pool
	}
	s.bufs = s.bufs[:0]
	s.sizes = s.sizes[:0]
	scratchPool.Put(s)
}

// readBody fills body with one frame's payload. Bodies below
// spliceThreshold come out of the buffered reader as before; larger
// bodies are spliced past it — buffered prefix drained, remainder read
// with io.ReadFull directly from the connection — so a payload-sized
// frame lands in its destination buffer in one copy instead of
// bouncing through the 256 KiB bufio window first.
func readBody(r *bufio.Reader, conn io.Reader, body []byte) error {
	if len(body) >= spliceThreshold {
		if n := min(r.Buffered(), len(body)); n > 0 {
			if _, err := io.ReadFull(r, body[:n]); err != nil {
				return err
			}
			body = body[n:]
		}
		if len(body) == 0 {
			return nil
		}
		_, err := io.ReadFull(conn, body)
		return err
	}
	_, err := io.ReadFull(r, body)
	return err
}

// poolDebug arms the response-buffer misuse detector: releases poison
// the buffer (so use-after-release reads garbage loudly instead of
// silently observing recycled memory), a double Release panics, and
// attach/release pairs are counted so tests can assert that a code
// path returns every pooled buffer it took. Off by default — the
// poolpoison build tag arms it for whole debug builds, SetPoolDebug
// arms it at runtime for tests.
var poolDebug atomic.Bool

// poolOutstanding tracks pooled response buffers attached and views
// lent (LendRelease) but not yet released while poolDebug is armed.
// Toggle debug only around balanced regions: buffers attached before
// arming are not counted.
var poolOutstanding atomic.Int64

// poolTaken tracks request bodies handlers took (wire.Msg.TakeBody)
// but have not given back while poolDebug is armed. A block store
// keeps a taken body as a block for as long as the block lives, so
// they are counted apart from the replies and views.
var poolTaken atomic.Int64

func init() { poolDebug.Store(poolPoisonBuild) }

// SetPoolDebug toggles the pooled-buffer misuse detector at runtime
// (tests). See poolDebug.
func SetPoolDebug(on bool) { poolDebug.Store(on) }

// PoolDebugOutstanding reports attached-but-unreleased pooled response
// buffers and lent views counted while the detector was armed.
func PoolDebugOutstanding() int64 { return poolOutstanding.Load() }

// PoolDebugTaken reports request bodies taken from the server and not
// yet given back, counted while the detector was armed.
func PoolDebugTaken() int64 { return poolTaken.Load() }

// poisonByte overwrites released buffers in debug mode; 0xDB reads as
// garbage in any payload and is recognizable in a hex dump.
const poisonByte = 0xDB

// newBufRelease builds the release hook for one buffer of pool — a
// reply's (wire.Resp.AttachRelease) or a taken request body's — that
// counts it in count while poolDebug is armed: the first call returns
// the buffer to the pool, a redundant second call is absorbed (and
// panics under poolDebug — releasing a buffer twice would hand the
// same memory to two owners).
func newBufRelease(pool *sync.Pool, body *[]byte, count *atomic.Int64) func() {
	debug := poolDebug.Load()
	if debug {
		count.Add(1)
	}
	var released atomic.Bool
	return func() {
		if !released.CompareAndSwap(false, true) {
			if poolDebug.Load() {
				panic("transport: pooled buffer released twice")
			}
			return
		}
		if debug {
			count.Add(-1)
		}
		if poolDebug.Load() {
			b := *body
			for i := range b {
				b[i] = poisonByte
			}
		}
		putBuf(pool, body)
	}
}

// LendRelease builds the release hook for bytes their owner lends to a
// reply rather than takes from a pool — a block store's view of a
// block — where end ends the loan. Like a pooled buffer's release, the
// first call runs end and a redundant second call is absorbed: ending
// one loan twice would let the owner write in place under another live
// one. Under poolDebug the loan counts as outstanding, a second call
// panics, and the release panics if the bytes changed since the loan:
// a borrower wrote into memory it was only lent, or the owner wrote in
// place under a live loan.
func LendRelease(view []byte, end func()) func() {
	debug := poolDebug.Load()
	var sum uint32
	if debug {
		poolOutstanding.Add(1)
		sum = crc32.ChecksumIEEE(view)
	}
	var released atomic.Bool
	return func() {
		if !released.CompareAndSwap(false, true) {
			if poolDebug.Load() {
				panic("transport: lent view released twice")
			}
			return
		}
		if debug {
			poolOutstanding.Add(-1)
			if crc32.ChecksumIEEE(view) != sum {
				panic("transport: lent view changed before its release")
			}
		}
		end()
	}
}

// outFrame is one outbound frame as a writer ships it: hdr holds the
// frame header and the Msg/Resp header, and the payload is the
// sender's own slice, handed to writev as an entry of its own.
type outFrame struct {
	hdr  *[]byte // pooled (headerPool)
	data []byte  // borrowed from the sender
}

// appendTo adds the frame's writev entries to bufs.
func (f *outFrame) appendTo(bufs net.Buffers) net.Buffers {
	bufs = append(bufs, *f.hdr)
	if len(f.data) > 0 {
		bufs = append(bufs, f.data)
	}
	return bufs
}

func (f *outFrame) size() int64 { return int64(len(*f.hdr) + len(f.data)) }

// borrows reports whether writing the frame reads memory its sender owns.
func (f *outFrame) borrows() bool { return len(f.data) > 0 }

// release recycles the header buffer and drops the borrowed payload.
func (f *outFrame) release() {
	putHeaderBuf(f.hdr)
	*f = outFrame{}
}

// appendMsgHeader appends a request frame's header bytes to buf: the
// frame header, then the message's encoding up to its payload, which
// follows on the wire from m.Data.
func appendMsgHeader(buf []byte, id uint64, m *wire.Msg) ([]byte, error) {
	n := m.WireSize()
	if n > maxFrameSize {
		return buf, fmt.Errorf("transport: %v frame of %d bytes exceeds the %d-byte limit", m.Kind, n, maxFrameSize)
	}
	return m.AppendHeaderTo(appendFrameHeader(buf, uint32(n), frameMsg, id)), nil
}

// msgFrame frames a request whose payload stays in m.
func msgFrame(id uint64, m *wire.Msg) (outFrame, error) {
	hdr := getHeaderBuf()
	b, err := appendMsgHeader((*hdr)[:0], id, m)
	if err != nil {
		putHeaderBuf(hdr)
		return outFrame{}, err
	}
	*hdr = b
	return outFrame{hdr: hdr, data: m.Data}, nil
}

// appendRespHeader appends a response frame's header bytes to buf, the
// payload following from r.Data. A response too large to frame is
// replaced by a structured error instead of silently dropping the call;
// the returned payload is what must follow the header.
func appendRespHeader(buf []byte, id uint64, r *wire.Resp) ([]byte, []byte) {
	n := r.WireSize()
	if n > maxFrameSize {
		r = &wire.Resp{Err: fmt.Sprintf("transport: response frame of %d bytes exceeds the %d-byte limit", n, maxFrameSize)}
		n = r.WireSize()
	}
	return r.AppendHeaderTo(appendFrameHeader(buf, uint32(n), frameResp, id)), r.Data
}

// respFrame frames a response whose payload stays in r.Data.
func respFrame(id uint64, r *wire.Resp) outFrame {
	hdr := getHeaderBuf()
	b, data := appendRespHeader((*hdr)[:0], id, r)
	*hdr = b
	return outFrame{hdr: hdr, data: data}
}

// readResp reads one response body of n bytes. When the payload fits the
// destination the caller named (or there is no payload), the header is
// decoded straight out of the buffered reader and the payload read into
// dst: Resp.Data is dst[:len] and no pooled buffer is involved.
// Otherwise the whole body lands in a pooled buffer that Resp.Data
// aliases, returned as body for the caller to attach as the response's
// release.
func readResp(r *bufio.Reader, conn io.Reader, n int, dst []byte) (resp *wire.Resp, body *[]byte, err error) {
	resp = new(wire.Resp)
	if n >= wire.RespFixedSize {
		fixed, err := r.Peek(wire.RespFixedSize)
		if err != nil {
			return nil, nil, err
		}
		// A malformed prefix falls through: the pooled path's Decode
		// reports it.
		hl, dl, err := wire.RespSections(fixed)
		if err == nil && hl+dl == n && hl <= r.Size() && dl <= len(dst) {
			h, err := r.Peek(hl)
			if err != nil {
				return nil, nil, err
			}
			if err := resp.DecodeHeader(h); err != nil {
				return nil, nil, fmt.Errorf("transport: decode response: %w", err)
			}
			r.Discard(hl) // cannot fail: the hl bytes are buffered
			if dl > 0 {
				if err := readBody(r, conn, dst[:dl]); err != nil {
					return nil, nil, err
				}
				resp.Data = dst[:dl:dl]
			}
			return resp, nil, nil
		}
	}
	body = getFrameBuf()
	if cap(*body) < n {
		*body = make([]byte, n)
	}
	*body = (*body)[:n]
	if err := readBody(r, conn, *body); err != nil {
		putFrameBuf(body)
		return nil, nil, err
	}
	if err := resp.Decode(*body); err != nil {
		putFrameBuf(body)
		return nil, nil, fmt.Errorf("transport: decode response: %w", err)
	}
	return resp, body, nil
}

func appendFrameHeader(buf []byte, n uint32, typ byte, id uint64) []byte {
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], n)
	hdr[4] = typ
	binary.BigEndian.PutUint64(hdr[5:13], id)
	return append(buf, hdr[:]...)
}

type frameHeader struct {
	n   uint32
	typ byte
	id  uint64
}

// readFrameHeader reads and validates one frame header. A peer speaking
// the retired gob framing shows up here as an unrecognized frame type —
// rejected with an error wrapping wire.ErrBadFormat rather than fed to
// the codec.
func readFrameHeader(r *bufio.Reader) (frameHeader, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frameHeader{}, err
	}
	h := frameHeader{
		n:   binary.BigEndian.Uint32(hdr[0:4]),
		typ: hdr[4],
		id:  binary.BigEndian.Uint64(hdr[5:13]),
	}
	if h.n > maxFrameSize {
		return frameHeader{}, fmt.Errorf("transport: frame of %d bytes exceeds limit", h.n)
	}
	if h.typ != frameMsg && h.typ != frameResp {
		return frameHeader{}, fmt.Errorf("transport: unrecognized frame type 0x%02x: %w", h.typ, wire.ErrBadFormat)
	}
	return h, nil
}

// TCPServer serves a node's handler on a listener.
type TCPServer struct {
	id      wire.NodeID
	handler Handler
	ln      net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// ServeTCP starts serving handler for node id on addr ("host:port",
// ":0" for an ephemeral port). It returns once the listener is bound.
// Requests on one connection are dispatched concurrently (bounded by
// maxInflightPerConn); Handler implementations are required to be safe
// for concurrent use on every transport.
func ServeTCP(id wire.NodeID, addr string, h Handler) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &TCPServer{id: id, handler: h, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and all connections.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn demuxes one client connection: the read loop decodes
// requests into pooled buffers and dispatches a goroutine per request;
// responses funnel through a shared frameWriter that coalesces
// concurrently finishing replies into single flushes.
//
// A response's Data is written from the handler's own slice, and it may
// alias the request body (an echo, a forwarded payload), so the request
// buffer of a response carrying a payload is recycled only once the
// response frame has been flushed; the response's own release (a reply
// buffer from ReplyBuf) runs then too, or when the frame is dropped.
// The Handler contract (no retaining request payloads beyond the call,
// no touching Resp.Data after returning it) is what makes both the
// pooling and the borrowing safe. Its one exception is a body the
// handler takes (wire.Msg.TakeBody): the server then neither recycles
// nor holds it, and the taker's release returns it to the frame pool.
func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	var reqWG sync.WaitGroup
	w := newFrameWriter(conn)
	defer func() {
		reqWG.Wait() // every in-flight handler has queued its response
		w.close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	r := getReader(conn)
	defer putReader(r)
	sem := make(chan struct{}, maxInflightPerConn)
	for {
		hdr, err := readFrameHeader(r)
		if err != nil || hdr.typ != frameMsg {
			return
		}
		body := getFrameBuf()
		if cap(*body) < int(hdr.n) {
			*body = make([]byte, hdr.n)
		}
		*body = (*body)[:hdr.n]
		if err := readBody(r, conn, *body); err != nil {
			putFrameBuf(body)
			return
		}
		in := &inbound{body: body}
		if err := in.msg.Decode(*body); err != nil {
			putFrameBuf(body)
			return
		}
		in.msg.OfferBody(in)
		sem <- struct{}{}
		reqWG.Add(1)
		go func(id uint64, in *inbound) {
			defer func() { <-sem; reqWG.Done() }()
			// Cancellation is a client-side concern on TCP (the caller's
			// context does not cross the wire); handlers run to
			// completion under a background context.
			resp := s.handler(context.Background(), &in.msg)
			if resp == nil {
				resp = &wire.Resp{}
			}
			out := respOut{frame: respFrame(id, resp), body: in.body, resp: resp}
			switch {
			case in.taken:
				// The handler owns the body now (wire.Msg.TakeBody).
				out.body = nil
			case !out.frame.borrows():
				// Nothing the flush reads can alias the request body.
				putFrameBuf(in.body)
				out.body = nil
			}
			w.send(out)
		}(hdr.id, in)
	}
}

// maxTakeSlack bounds, as a share of the request, the spare capacity a
// request buffer may carry and still be taken: a taker keeps the whole
// buffer, so a block adopting one must not pin much more than itself.
const maxTakeSlack = 8 // at most 1/8 spare

// inbound is one request the server read: the decoded message and the
// pooled buffer its payload aliases, offered to the handler as the
// message's wire.Body.
type inbound struct {
	msg   wire.Msg
	body  *[]byte // framePool
	taken bool    // set by Take during the handler, read after it
}

// Take hands the request buffer to the handler, with the release that
// returns it to the frame pool; nil if taken already, or if the
// buffer's spare capacity is over a maxTakeSlack share of the request.
func (in *inbound) Take() func() {
	n := len(*in.body)
	if in.taken || cap(*in.body)-n > n/maxTakeSlack {
		return nil
	}
	in.taken = true
	return newBufRelease(&framePool, in.body, &poolTaken)
}

// respOut is one queued response: its frame, the request body its
// payload may alias, and the response whose release returns a reply
// buffer the payload may be, all let go together exactly once, when the
// frame is flushed or dropped.
type respOut struct {
	frame outFrame
	body  *[]byte
	resp  *wire.Resp
}

func (o *respOut) release() {
	o.frame.release()
	putFrameBuf(o.body)
	o.resp.Release()
}

// frameWriter coalesces frames queued by concurrent goroutines into
// single writev-style flushes on one connection. Frames handed to send
// are owned by the writer and released after the flush.
type frameWriter struct {
	conn net.Conn

	mu     sync.Mutex
	queue  []respOut
	err    error
	closed bool
	wake   chan struct{}
	done   chan struct{}
}

func newFrameWriter(conn net.Conn) *frameWriter {
	w := &frameWriter{conn: conn, wake: make(chan struct{}, 1), done: make(chan struct{})}
	go w.loop()
	return w
}

// send queues one response for the next flush.
func (w *frameWriter) send(out respOut) {
	w.mu.Lock()
	if w.err != nil || w.closed {
		w.mu.Unlock()
		out.release()
		return
	}
	w.queue = append(w.queue, out)
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// close stops the writer after the current flush and waits for it.
func (w *frameWriter) close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
	<-w.done
}

func (w *frameWriter) loop() {
	defer close(w.done)
	scratch := getScratch()
	defer putScratch(scratch)
	for {
		<-w.wake
		for {
			w.mu.Lock()
			batch := w.queue
			w.queue = nil
			closed, err := w.closed, w.err
			w.mu.Unlock()
			if len(batch) == 0 {
				if closed {
					return
				}
				break // wait for the next wake
			}
			if err == nil {
				err = flushFrames(w.conn, batch, scratch)
				if err != nil {
					w.mu.Lock()
					w.err = err
					w.mu.Unlock()
				}
			}
			for i := range batch {
				batch[i].release()
			}
		}
	}
}

// flushFrames writes a batch of frames with one writev-style call,
// assembling the vector in the writer's pooled scratch.
func flushFrames(conn net.Conn, batch []respOut, scratch *writeScratch) error {
	bufs := scratch.bufs[:0]
	for i := range batch {
		bufs = batch[i].frame.appendTo(bufs)
	}
	scratch.bufs = bufs
	conn.SetWriteDeadline(time.Now().Add(writeStallBudget))
	_, err := bufs.WriteTo(conn)
	return err
}

// AddrResolver fetches a fresh node address map — typically by asking
// the MDS with wire.KResolveAddr. The TCP client calls it when a
// destination has no known address or a call to a known address fails,
// which is how a pool follows replacement nodes with no manual SetAddr.
//
// A resolver that issues Calls on the same client (the usual shape)
// MUST thread the provided ctx into them: it carries the re-entrancy
// guard that keeps a failing KResolveAddr call from recursively
// triggering another resolve while the MDS is unreachable.
type AddrResolver func(ctx context.Context) (map[wire.NodeID]string, error)

// resolverCtxKey marks contexts handed to an AddrResolver (the value is
// the *TCPClient whose resolver is running), so Calls the resolver
// issues on the same client never start a nested resolve — while a
// different client reached through the same ctx still resolves freely.
type resolverCtxKey struct{}

// resolveFlight is one in-flight resolver invocation; concurrent
// callers wait on done and share ok instead of dogpiling the MDS.
type resolveFlight struct {
	done chan struct{}
	ok   bool
}

// TCPClient is an RPC over real sockets. It maintains one multiplexed
// connection per destination: concurrent calls are pipelined on it with
// per-call request ids, their frames coalesced into shared flushes by
// the connection's writer goroutine, and responses demuxed to waiting
// callers by the reader.
//
// Reliability: a cancelled or deadline-expired ctx abandons the call
// immediately (the response, if one ever arrives, is discarded by the
// demux), so a Call unblocks without waiting out the round-trip — only
// a flush or reply read still holding the call's borrowed buffers is
// waited for, and failed after settleGrace if its peer stalled. A call
// that fails at the connection level is retried on a fresh connection
// when the message kind is idempotent (wire.Kind.Idempotent) — a
// connection may have died with the server's previous incarnation — or
// when the frame provably never left the client (it had not been
// flushed when the connection failed), and, when an AddrResolver is
// set, the address map is re-resolved first, so a node restarted on a
// new port or a replacement under a fresh id is found without SetAddr.
type TCPClient struct {
	mu       sync.Mutex
	addrs    map[wire.NodeID]string
	conns    map[wire.NodeID]*connSlot
	flushes  map[wire.NodeID]*atomic.Int64 // writev flushes per destination, across redials
	resolver AddrResolver
	flight   *resolveFlight // in-flight resolve shared by concurrent callers
	closed   bool
}

// tcpAttempts bounds connection-level attempts per Call (initial try
// plus reconnect/re-resolve retries).
const tcpAttempts = 3

// errNoAddr marks the terminal "no address and none resolvable" state;
// unlike a dial or connection failure it is not worth burning retry
// attempts on.
var errNoAddr = errors.New("no address")

// NewTCPClient creates a client with a static node -> address map.
// Addresses can be added later with SetAddr or discovered through an
// AddrResolver (SetResolver).
func NewTCPClient(addrs map[wire.NodeID]string) *TCPClient {
	c := &TCPClient{
		addrs:   make(map[wire.NodeID]string),
		conns:   make(map[wire.NodeID]*connSlot),
		flushes: make(map[wire.NodeID]*atomic.Int64),
	}
	for id, a := range addrs {
		c.addrs[id] = a
	}
	return c
}

// DestFlushes reports how many writev flushes this client has issued to
// a destination, summed across every connection ever dialed to it. One
// batched fan-out enters the write queue contiguously and leaves in one
// flush, so this is the observable the write-coalescing tests assert
// on: N stripes coalesced to one destination cost one flush, not N.
func (c *TCPClient) DestFlushes(to wire.NodeID) int64 {
	c.mu.Lock()
	ctr := c.flushes[to]
	c.mu.Unlock()
	if ctr == nil {
		return 0
	}
	return ctr.Load()
}

// flushCounterLocked returns the destination's flush counter, creating
// it on first use. Caller holds c.mu.
func (c *TCPClient) flushCounterLocked(to wire.NodeID) *atomic.Int64 {
	ctr := c.flushes[to]
	if ctr == nil {
		ctr = new(atomic.Int64)
		c.flushes[to] = ctr
	}
	return ctr
}

// SetAddr registers or updates a node's address.
func (c *TCPClient) SetAddr(id wire.NodeID, addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.setAddrLocked(id, addr)
}

func (c *TCPClient) setAddrLocked(id wire.NodeID, addr string) {
	if c.addrs[id] == addr {
		return
	}
	c.addrs[id] = addr
	if slot := c.conns[id]; slot != nil {
		slot.shutdown() // force reconnect to the new address
		delete(c.conns, id)
	}
}

// SetResolver installs the address resolver consulted when a node has no
// known address or a call to its known address fails.
func (c *TCPClient) SetResolver(r AddrResolver) {
	c.mu.Lock()
	c.resolver = r
	c.mu.Unlock()
}

// UpdateAddrs merges a resolved address map; nodes whose address changed
// get their connection dropped so the next call redials.
func (c *TCPClient) UpdateAddrs(addrs map[wire.NodeID]string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, a := range addrs {
		c.setAddrLocked(id, a)
	}
}

// Addr returns the client's current address for a node ("" if unknown).
func (c *TCPClient) Addr(id wire.NodeID) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addrs[id]
}

// Close closes all connections.
func (c *TCPClient) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, slot := range c.conns {
		slot.shutdown()
	}
	c.conns = make(map[wire.NodeID]*connSlot)
}

// resolve refreshes the address map through the resolver, if any.
// Reports whether a refresh happened.
//
// Two re-entry shapes are handled. (1) Recursion: resolvers issue
// KResolveAddr through this same client, and that inner Call must not
// trigger another resolve when the MDS itself is unreachable — the
// mutual recursion would never bottom out, so the resolver runs under a
// ctx marked with this client that makes nested resolves return false
// immediately and an MDS outage surfaces as ErrNodeUnreachable instead
// of a stack overflow. (2) Concurrency: a shard fan-out can miss many
// addresses at once, so callers that find a resolve already in flight
// wait for it and share a success rather than failing fast or dogpiling
// the MDS. A shared *failure* is not adopted: the flight may have died
// on its owner's expiring context, so a waiter whose own ctx is still
// live loops and resolves for itself.
func (c *TCPClient) resolve(ctx context.Context) bool {
	if ctx.Value(resolverCtxKey{}) == c {
		return false // issued by this client's own resolver: never recurse
	}
	for {
		c.mu.Lock()
		r := c.resolver
		if r == nil || c.closed {
			c.mu.Unlock()
			return false
		}
		f := c.flight
		owner := f == nil
		if owner {
			f = &resolveFlight{done: make(chan struct{})}
			c.flight = f
		}
		c.mu.Unlock()
		if owner {
			return c.runResolveFlight(ctx, r, f)
		}
		select {
		case <-f.done:
			if f.ok || ctx.Err() != nil {
				return f.ok
			}
			// The flight failed, possibly on its owner's context rather
			// than the MDS; try again under our own.
		case <-ctx.Done():
			return false
		}
	}
}

// runResolveFlight invokes the resolver once as the owner of f, records
// the outcome for waiters, and clears the flight.
func (c *TCPClient) runResolveFlight(ctx context.Context, r AddrResolver, f *resolveFlight) bool {
	defer func() {
		c.mu.Lock()
		c.flight = nil
		c.mu.Unlock()
		close(f.done)
	}()
	addrs, err := r(context.WithValue(ctx, resolverCtxKey{}, c))
	if err != nil || len(addrs) == 0 {
		return false
	}
	c.UpdateAddrs(addrs)
	f.ok = true
	return true
}

// connFor returns a live multiplexed connection to a node, resolving
// its address first if unknown and dialing (single-flight per node) if
// none is up. A returned error wrapping errNoAddr is terminal for the
// call; any other error is a dial failure worth a retry.
func (c *TCPClient) connFor(ctx context.Context, to wire.NodeID) (*muxConn, string, error) {
	for attempt := 0; ; attempt++ {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, "", fmt.Errorf("transport: client closed: %w: %w", errNoAddr, ErrNodeUnreachable)
		}
		if slot := c.conns[to]; slot != nil {
			c.mu.Unlock()
			mc, err := slot.get(ctx)
			return mc, slot.addr, err
		}
		if addr, ok := c.addrs[to]; ok {
			slot := &connSlot{addr: addr, flushes: c.flushCounterLocked(to)}
			c.conns[to] = slot
			c.mu.Unlock()
			mc, err := slot.get(ctx)
			return mc, slot.addr, err
		}
		c.mu.Unlock()
		if attempt > 0 || !c.resolve(ctx) {
			return nil, "", fmt.Errorf("transport: no address for node %d: %w: %w", to, errNoAddr, ErrNodeUnreachable)
		}
	}
}

// connSlot is the per-destination connection holder: one live muxConn,
// re-dialed on demand with a single-flight guard so a shard fan-out
// that finds the connection dead does not dogpile the destination with
// parallel dials.
type connSlot struct {
	addr    string
	flushes *atomic.Int64 // owning client's per-destination flush counter

	mu      sync.Mutex
	conn    *muxConn
	dialing chan struct{} // non-nil while a dial is in flight
}

func (s *connSlot) get(ctx context.Context) (*muxConn, error) {
	for {
		s.mu.Lock()
		if s.conn != nil && !s.conn.broken() {
			mc := s.conn
			s.mu.Unlock()
			return mc, nil
		}
		s.conn = nil
		if s.dialing == nil {
			ch := make(chan struct{})
			s.dialing = ch
			s.mu.Unlock()
			mc, err := dialMux(ctx, s.addr, s.flushes)
			s.mu.Lock()
			s.dialing = nil
			if err == nil {
				s.conn = mc
			}
			s.mu.Unlock()
			close(ch)
			return mc, err
		}
		ch := s.dialing
		s.mu.Unlock()
		select {
		case <-ch:
			// Re-check: adopt the dialer's fresh connection, or — if its
			// dial failed, possibly on its own shorter ctx — dial for
			// ourselves on the next pass.
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func (s *connSlot) shutdown() {
	s.mu.Lock()
	mc := s.conn
	s.conn = nil
	s.mu.Unlock()
	if mc != nil {
		mc.shutdown()
	}
}

// Call implements RPC.
func (c *TCPClient) Call(ctx context.Context, to wire.NodeID, msg *wire.Msg) (*wire.Resp, error) {
	bc := BatchCall{To: to, Msg: msg}
	c.callGroup(ctx, to, []*BatchCall{&bc})
	return bc.Resp, bc.Err
}

// CallBatch implements RPC: calls are grouped per destination and
// every group enters its connection's write queue together, so one
// stripe's same-destination frames leave in a single coalesced flush.
// Per-call results land in each BatchCall; retry and re-resolve rules
// are identical to Call's.
func (c *TCPClient) CallBatch(ctx context.Context, calls []*BatchCall) {
	groups := make(map[wire.NodeID][]*BatchCall, len(calls))
	order := make([]wire.NodeID, 0, len(calls))
	for _, bc := range calls {
		if _, ok := groups[bc.To]; !ok {
			order = append(order, bc.To)
		}
		groups[bc.To] = append(groups[bc.To], bc)
	}
	if len(order) == 1 {
		c.callGroup(ctx, order[0], calls)
		return
	}
	var wg sync.WaitGroup
	for _, to := range order {
		wg.Add(1)
		go func(to wire.NodeID, group []*BatchCall) {
			defer wg.Done()
			c.callGroup(ctx, to, group)
		}(to, groups[to])
	}
	wg.Wait()
}

// callGroup delivers a set of calls to one destination, enqueueing
// their frames together (one flush) and applying Call's retry policy
// per call: a frame that provably never left the client retries freely,
// a frame that may have been delivered retries only for idempotent
// kinds, and the address map is re-resolved between attempts.
func (c *TCPClient) callGroup(ctx context.Context, to wire.NodeID, calls []*BatchCall) {
	pending := make([]*BatchCall, len(calls))
	copy(pending, calls)
	lastErr := make(map[*BatchCall]error, len(calls))
	fail := func(bc *BatchCall, err error) { bc.Resp, bc.Err = nil, err }
	for attempt := 0; attempt < tcpAttempts && len(pending) > 0; attempt++ {
		if err := ctx.Err(); err != nil {
			for _, bc := range pending {
				fail(bc, fmt.Errorf("transport: call %v to node %d: %w", bc.Msg.Kind, to, err))
			}
			return
		}
		mc, addr, err := c.connFor(ctx, to)
		if err != nil {
			if errors.Is(err, errNoAddr) {
				// Terminal: nothing to dial and nothing resolved. Prefer
				// the more specific earlier failure when there was one.
				for _, bc := range pending {
					if le := lastErr[bc]; le != nil {
						fail(bc, le)
					} else {
						fail(bc, err)
					}
				}
				return
			}
			werr := fmt.Errorf("transport: call to node %d at %s: %v: %w", to, addr, err, ErrNodeUnreachable)
			if ctx.Err() != nil {
				for _, bc := range pending {
					fail(bc, fmt.Errorf("transport: call %v to node %d: %w", bc.Msg.Kind, to, ctx.Err()))
				}
				return
			}
			for _, bc := range pending {
				lastErr[bc] = werr
			}
			c.resolve(ctx)
			continue
		}
		msgs := make([]*wire.Msg, len(pending))
		for i, bc := range pending {
			msgs[i] = bc.Msg
		}
		results := mc.do(ctx, msgs)
		var next []*BatchCall
		for i, r := range results {
			bc := pending[i]
			if r.err == nil {
				bc.Resp, bc.Err = r.resp, nil
				continue
			}
			if r.ctxDone {
				fail(bc, fmt.Errorf("transport: call %v to node %d: %w", bc.Msg.Kind, to, r.err))
				continue
			}
			le := fmt.Errorf("transport: call %v to node %d at %s: %v: %w", bc.Msg.Kind, to, addr, r.err, ErrNodeUnreachable)
			lastErr[bc] = le
			if r.sent && !bc.Msg.Kind.Idempotent() {
				// The frame may have been delivered and applied; a
				// non-idempotent request is never re-sent on doubt.
				fail(bc, le)
				continue
			}
			next = append(next, bc)
		}
		if ctx.Err() != nil {
			for _, bc := range next {
				fail(bc, fmt.Errorf("transport: call %v to node %d: %w", bc.Msg.Kind, to, ctx.Err()))
			}
			return
		}
		pending = next
		if len(pending) > 0 {
			// The node may have moved; refresh the map before redialing.
			c.resolve(ctx)
		}
	}
	for _, bc := range pending {
		fail(bc, lastErr[bc])
	}
}

// muxResult is the connection-level outcome of one call attempt.
type muxResult struct {
	resp    *wire.Resp
	err     error
	sent    bool // the frame may have reached the server
	ctxDone bool // err is the caller's ctx error, not a connection failure
}

// muxCall is one in-flight request on a muxConn.
type muxCall struct {
	id    uint64
	frame outFrame // owned by the writer once queued
	dst   []byte   // where the reply's payload goes (wire.Msg.ReplyBuf)
	done  chan struct{}
	resp  *wire.Resp
	err   error

	// Guarded by muxConn.mu; sent is final once done is closed.
	sent     bool // the frame may have reached the server
	flushing bool // the writer is writing the frame's borrowed payload
	filling  bool // the reader is reading the reply's payload into dst
}

// muxConn is one multiplexed client connection. Callers enqueue encoded
// frames and wait per call; the writer goroutine drains the queue in
// coalesced writev flushes and the reader demuxes responses by id.
type muxConn struct {
	conn    net.Conn
	flushes *atomic.Int64 // per-destination flush counter (may be nil)

	mu      sync.Mutex
	nextID  uint64
	queue   []*muxCall
	pending map[uint64]*muxCall
	err     error // sticky; the connection is dead once set
	wake    chan struct{}
	// ioIdle, when non-nil, is closed the next time the writer ends a
	// flush or the reader ends a destination read; settle waits on it.
	ioIdle chan struct{}
}

// errConnClosed marks frames failed by a deliberate local shutdown
// (Close or an address change), as opposed to a peer/network failure.
var errConnClosed = errors.New("connection closed")

// errIOStalled fails a connection whose flush or payload read held an
// abandoned call's buffers past settleGrace.
var errIOStalled = errors.New("I/O on an abandoned call's buffers stalled")

func dialMux(ctx context.Context, addr string, flushes *atomic.Int64) (*muxConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	mc := &muxConn{
		conn:    conn,
		flushes: flushes,
		pending: make(map[uint64]*muxCall),
		wake:    make(chan struct{}, 1),
	}
	go mc.writeLoop()
	go mc.readLoop()
	return mc, nil
}

func (mc *muxConn) broken() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.err != nil
}

func (mc *muxConn) shutdown() { mc.fail(errConnClosed) }

// fail marks the connection dead and completes every queued and pending
// call with err. Calls still sitting in the write queue provably never
// left (sent stays false); calls already handed to the writer keep
// whatever sent state the writer established. Idempotent by design —
// the first failure wins. Closing the socket is also what unblocks a
// writer or reader still holding a failed call's buffers, which the
// call's waiter settles on before returning.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.err != nil {
		mc.mu.Unlock()
		return
	}
	mc.err = err
	queued := mc.queue
	mc.queue = nil
	for _, call := range queued {
		call.frame.release()
		delete(mc.pending, call.id)
		call.err = err
		close(call.done)
	}
	pending := mc.pending
	mc.pending = make(map[uint64]*muxCall)
	for _, call := range pending {
		call.err = err
		close(call.done)
	}
	mc.mu.Unlock()
	select {
	case mc.wake <- struct{}{}: // unstick an idle writer so it exits
	default:
	}
	mc.conn.Close()
}

// enqueue frames msgs and adds them to the write queue in one critical
// section — a batch enters the queue contiguously and is flushed
// together — then wakes the writer once.
func (mc *muxConn) enqueue(msgs []*wire.Msg) ([]*muxCall, error) {
	mc.mu.Lock()
	first := mc.nextID + 1
	mc.nextID += uint64(len(msgs))
	mc.mu.Unlock()
	calls := make([]*muxCall, len(msgs))
	for i, m := range msgs {
		f, err := msgFrame(first+uint64(i), m)
		if err != nil {
			for _, c := range calls[:i] {
				c.frame.release()
			}
			return nil, err
		}
		calls[i] = &muxCall{id: first + uint64(i), frame: f, dst: m.ReplyBuf(), done: make(chan struct{})}
	}
	mc.mu.Lock()
	if err := mc.err; err != nil {
		mc.mu.Unlock()
		for _, c := range calls {
			c.frame.release()
		}
		return nil, err
	}
	for _, call := range calls {
		mc.queue = append(mc.queue, call)
		mc.pending[call.id] = call
	}
	mc.mu.Unlock()
	select {
	case mc.wake <- struct{}{}:
	default:
	}
	return calls, nil
}

// do runs a batch of calls on the connection and reports each one's
// outcome. A done ctx abandons the remaining calls: their frames are
// withdrawn from the write queue when still unsent, and any late
// responses are dropped by the demux. Either way do returns only once
// the connection has let go of every buffer the calls borrowed.
func (mc *muxConn) do(ctx context.Context, msgs []*wire.Msg) []muxResult {
	results := make([]muxResult, len(msgs))
	calls, err := mc.enqueue(msgs)
	if err != nil {
		for i := range results {
			results[i] = muxResult{err: err}
		}
		return results
	}
	for i, call := range calls {
		select {
		case <-call.done:
			results[i] = mc.result(call)
		case <-ctx.Done():
			if completed, sent := mc.abandon(call); completed {
				results[i] = mc.result(call)
			} else {
				mc.settle(call)
				results[i] = muxResult{err: ctx.Err(), sent: sent, ctxDone: true}
			}
		}
	}
	return results
}

// result reads a completed call's outcome. A reply proves the frame
// left and the reader completes a call only after filling its
// destination, so only a call failed with its connection can still have
// borrowed buffers in use; it settles first.
func (mc *muxConn) result(call *muxCall) muxResult {
	if call.err != nil {
		mc.settle(call)
	}
	return muxResult{resp: call.resp, err: call.err, sent: call.sent}
}

// abandon withdraws a call after its caller's ctx fired: the frame is
// pulled from the write queue when still unsent, and the pending entry
// is removed so a late response is discarded. It reports whether the
// call completed before it could be withdrawn — its own result then
// stands — and otherwise whether the frame may have reached the server.
func (mc *muxConn) abandon(call *muxCall) (completed, sent bool) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	select {
	case <-call.done:
		return true, call.sent
	default:
	}
	for i, qc := range mc.queue {
		if qc == call {
			mc.queue = append(mc.queue[:i], mc.queue[i+1:]...)
			call.frame.release()
			break
		}
	}
	delete(mc.pending, call.id)
	return false, call.sent
}

// settle returns once neither the writer nor the reader is touching the
// call's borrowed memory: the payload its frame ships from the caller's
// slices, and the destination its reply is read into. This is the
// interlock behind the ownership rule that nothing reads a borrowed
// payload or writes a destination after its Call returns. A flush or
// read still holding them after settleGrace is stuck on a peer that
// stopped reading or writing; the connection is failed, which ends it
// promptly, so cancellation stays prompt too.
func (mc *muxConn) settle(call *muxCall) {
	var grace <-chan time.Time
	for {
		mc.mu.Lock()
		if !call.flushing && !call.filling {
			mc.mu.Unlock()
			return
		}
		if mc.ioIdle == nil {
			mc.ioIdle = make(chan struct{})
		}
		idle := mc.ioIdle
		mc.mu.Unlock()
		if grace == nil {
			t := time.NewTimer(settleGrace)
			defer t.Stop()
			grace = t.C
		}
		select {
		case <-idle:
		case <-grace:
			mc.fail(errIOStalled)
		}
	}
}

// ioDoneLocked wakes every settle waiting for the writer or reader to
// end a flush or destination read. Caller holds mc.mu.
func (mc *muxConn) ioDoneLocked() {
	if mc.ioIdle != nil {
		close(mc.ioIdle)
		mc.ioIdle = nil
	}
}

// writeLoop drains the queue, coalescing everything queued since the
// last flush into one writev-style write: each frame's header buffer
// followed by its caller's payload slices. Frames are marked sent (and,
// when they borrow a payload, flushing) before the flush begins; after
// a write error the unwritten tail is downgraded back to unsent (those
// frames provably never left), the boundary frame staying sent — a
// truncated frame cannot be decoded by the server, but conservatively
// counting it keeps a non-idempotent request from ever being re-sent on
// doubt.
func (mc *muxConn) writeLoop() {
	scratch := getScratch()
	defer putScratch(scratch)
	for range mc.wake {
		for {
			mc.mu.Lock()
			if mc.err != nil {
				mc.mu.Unlock()
				return
			}
			batch := mc.queue
			mc.queue = nil
			bufs := scratch.bufs[:0]
			sizes := scratch.sizes[:0]
			for _, call := range batch {
				call.sent = true
				call.flushing = call.frame.borrows()
				bufs = call.frame.appendTo(bufs)
				sizes = append(sizes, call.frame.size())
			}
			scratch.bufs, scratch.sizes = bufs, sizes
			mc.mu.Unlock()
			if len(batch) == 0 {
				break // back to waiting on wake
			}
			if mc.flushes != nil {
				mc.flushes.Add(1)
			}
			mc.conn.SetWriteDeadline(time.Now().Add(writeStallBudget))
			written, err := bufs.WriteTo(mc.conn)
			mc.mu.Lock()
			var prefix int64
			for i, call := range batch {
				call.flushing = false
				if err != nil && prefix >= written {
					select {
					case <-call.done:
						// Already completed (a concurrent fail); its sent
						// state is final — never mutate after the waiter
						// may read it.
					default:
						call.sent = false
					}
				}
				prefix += sizes[i]
			}
			mc.ioDoneLocked()
			mc.mu.Unlock()
			for _, call := range batch {
				call.frame.release()
			}
			if err != nil {
				mc.fail(err)
				return
			}
		}
	}
}

// readLoop demuxes response frames to their waiting calls. Any read or
// decode failure — including a peer speaking the retired gob framing,
// surfaced as wire.ErrBadFormat — kills the connection and fails every
// in-flight call.
//
// A reply whose call named a destination is read into it (readResp),
// with the call marked filling for the duration so an abandoning caller
// settles before reusing the buffer. Every other body is decoded into a
// pooled buffer (payload-sized frames spliced past the bufio layer, see
// readBody) and handed to the caller with a wire.Resp release hook: the
// caller that is done with Resp.Data calls Release() to return the
// buffer, and a caller that forgets merely costs the pool a miss — the
// collector still owns the memory.
func (mc *muxConn) readLoop() {
	r := getReader(mc.conn)
	defer putReader(r)
	for {
		hdr, err := readFrameHeader(r)
		if err != nil {
			mc.fail(err)
			return
		}
		if hdr.typ != frameResp {
			mc.fail(fmt.Errorf("transport: request frame on the client side: %w", wire.ErrBadFormat))
			return
		}
		// A call still waiting for this reply lends its destination; it
		// is marked filling until the read ends.
		var filling *muxCall
		mc.mu.Lock()
		if call := mc.pending[hdr.id]; call != nil && call.dst != nil {
			filling = call
			call.filling = true
		}
		mc.mu.Unlock()
		var dst []byte
		if filling != nil {
			dst = filling.dst
		}
		resp, body, err := readResp(r, mc.conn, int(hdr.n), dst)
		if err == nil && body != nil {
			resp.AttachRelease(newBufRelease(&framePool, body, &poolOutstanding))
		}
		mc.mu.Lock()
		if filling != nil {
			filling.filling = false
			mc.ioDoneLocked()
		}
		if err != nil {
			mc.mu.Unlock()
			mc.fail(err)
			return
		}
		call := mc.pending[hdr.id]
		delete(mc.pending, hdr.id)
		if call != nil {
			call.resp = resp
			close(call.done)
		}
		mc.mu.Unlock()
		if call == nil {
			// Abandoned or unknown id: nobody will ever release it.
			resp.Release()
		}
	}
}
