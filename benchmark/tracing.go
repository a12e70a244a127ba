package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Every layer is traced from outside: the benchmark wraps the
// transport.Handler values it gives to ServeTCP and the transport.RPC
// values it gives to NewOSDAt and NewClient. Nothing inside the program
// knows it is being traced, and an untraced run installs no wrapper at
// all.

type spanName uint8

const (
	spanOp         spanName = iota // one client operation (update, read, write)
	spanClientCall                 // a Call or CallBatch the client issued
	spanOSDHandler                 // ecfs.OSD.Handler serving one message
	spanMDSHandler                 // ecfs.MDS.Handler serving one message
	spanPeerCall                   // a Call or CallBatch an OSD issued to a peer
	spanStage2                     // root of peer calls made with context.Background()
)

var spanNames = [...]string{"op", "client.call", "osd.handler", "mds.handler", "osd.peer_call", "stage2"}

// Op kinds share the span's kind field with wire kinds; they sit above
// every wire.Kind value.
const (
	opUpdate wire.Kind = 200 + iota
	opRead
	opWrite
	opDegradedRead
)

type span struct {
	name       spanName
	kind       wire.Kind
	node       wire.NodeID // serving node of a handler, caller of a call
	parent     int32       // span id, 0 for none
	start, end int64       // ns on the tracer's monotonic clock
	bytes      int64       // request plus response wire bytes (payload bytes for an op)
}

// callKey is what a request looks like on both ends of the wire. A
// handler span is matched to the call span that carried it by this key
// plus time containment: one process, one monotonic clock.
type callKey struct {
	kind  wire.Kind
	to    wire.NodeID
	block wire.BlockID
	off   uint32
	size  uint32
	n     int
	flag  uint8
}

func keyOf(to wire.NodeID, m *wire.Msg) callKey {
	return callKey{kind: m.Kind, to: to, block: m.Block, off: m.Off, size: m.Size, n: len(m.Data), flag: m.Flag}
}

type keyedSpan struct {
	key callKey
	id  int32
}

type tracer struct {
	t0 time.Time
	on atomic.Bool // spans are recorded only while set

	mu       sync.Mutex
	spans    []span
	calls    []keyedSpan // one per message of every call span
	handlers []keyedSpan // one per handler span
	stage2   int32

	// Counted whether or not spans are being recorded, so set-up work
	// (first-touch placement at the MDS) shows.
	mdsCalls, mdsNanos atomic.Int64
	// Counted while recording.
	clientCalls atomic.Int64 // messages the client sent
	peerBytes   atomic.Int64 // request wire bytes OSDs sent to peers
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<20)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

type spanCtxKey struct{}

func withSpan(ctx context.Context, id int32) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, id)
}

func spanFrom(ctx context.Context) int32 {
	id, _ := ctx.Value(spanCtxKey{}).(int32)
	return id
}

// start turns recording on and opens the stage2 root. Like every
// tracer method it does nothing on a nil tracer (an untraced run).
func (t *tracer) start() {
	if t != nil {
		t.on.Store(true)
		t.stage2 = t.begin(spanStage2, 0, 0, 0)
	}
}

// pause and resume bracket untimed work (the correctness gate) between
// timed phases. Spans already open still close.
func (t *tracer) pause() {
	if t != nil {
		t.on.Store(false)
	}
}

func (t *tracer) resume() {
	if t != nil {
		t.on.Store(true)
	}
}

// stop closes the stage2 root and turns recording off.
func (t *tracer) stop() {
	if t != nil {
		t.end(t.stage2, 0)
		t.on.Store(false)
	}
}

// begin opens a span and returns its id, or 0 when not recording.
func (t *tracer) begin(name spanName, kind wire.Kind, node wire.NodeID, parent int32) int32 {
	if t == nil || !t.on.Load() {
		return 0
	}
	s := span{name: name, kind: kind, node: node, parent: parent, start: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	id := int32(len(t.spans))
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32, bytes int64) {
	if id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].end = now
	t.spans[id-1].bytes = bytes
	t.mu.Unlock()
}

// beginOp opens the root span of one client operation and returns the
// context that carries it down into the client's calls.
func (t *tracer) beginOp(ctx context.Context, kind wire.Kind) (context.Context, int32) {
	id := t.begin(spanOp, kind, 0, 0)
	return withSpan(ctx, id), id
}

// handler wraps a node's handler. The TCP server runs handlers under a
// background context, so the span's parent is found afterwards by
// matching (see analyze); the handler's own peer calls find it through
// the context handed on here.
func (t *tracer) handler(name spanName, node wire.NodeID, h transport.Handler) transport.Handler {
	if t == nil {
		return h
	}
	return func(ctx context.Context, msg *wire.Msg) *wire.Resp {
		var t0 time.Time
		if name == spanMDSHandler {
			t0 = time.Now()
		}
		id := t.begin(name, msg.Kind, node, 0)
		var key callKey
		if id != 0 {
			key = keyOf(node, msg) // before the handler can touch msg
		}
		resp := h(withSpan(ctx, id), msg)
		if id != 0 {
			var n int64
			if resp != nil {
				n = resp.WireSize()
			}
			t.end(id, msg.WireSize()+n)
			t.mu.Lock()
			t.handlers = append(t.handlers, keyedSpan{key, id})
			t.mu.Unlock()
		}
		if name == spanMDSHandler {
			t.mdsCalls.Add(1)
			t.mdsNanos.Add(int64(time.Since(t0)))
		}
		return resp
	}
}

// tracedRPC records one span per Call and one per CallBatch (a batch is
// one fan-out: its frames leave together and it returns when the slowest
// reply is in).
type tracedRPC struct {
	inner *transport.TCPClient
	t     *tracer
	name  spanName
	from  wire.NodeID
}

// rpc wraps a connection pool; an untraced run gets the pool itself.
func (t *tracer) rpc(name spanName, from wire.NodeID, inner *transport.TCPClient) transport.RPC {
	if t == nil {
		return inner
	}
	return &tracedRPC{inner: inner, t: t, name: name, from: from}
}

func (r *tracedRPC) open(ctx context.Context, calls []*transport.BatchCall) int32 {
	parent := spanFrom(ctx)
	if parent == 0 {
		if r.name != spanPeerCall {
			return 0 // client calls outside an op (set-up, drain) are not traced
		}
		parent = r.t.stage2
	}
	id := r.t.begin(r.name, calls[0].Msg.Kind, r.from, parent)
	if id == 0 {
		return 0
	}
	var sent int64
	r.t.mu.Lock()
	for _, bc := range calls {
		r.t.calls = append(r.t.calls, keyedSpan{keyOf(bc.To, bc.Msg), id})
		sent += bc.Msg.WireSize()
	}
	r.t.mu.Unlock()
	if r.name == spanPeerCall {
		r.t.peerBytes.Add(sent)
	} else {
		r.t.clientCalls.Add(int64(len(calls)))
	}
	return id
}

func (r *tracedRPC) close(id int32, calls []*transport.BatchCall) {
	if id == 0 {
		return
	}
	var n int64
	for _, bc := range calls {
		n += bc.Msg.WireSize()
		if bc.Resp != nil {
			n += bc.Resp.WireSize()
		}
	}
	r.t.end(id, n)
}

func (r *tracedRPC) Call(ctx context.Context, to wire.NodeID, msg *wire.Msg) (*wire.Resp, error) {
	bc := []*transport.BatchCall{{To: to, Msg: msg}}
	id := r.open(ctx, bc)
	bc[0].Resp, bc[0].Err = r.inner.Call(ctx, to, msg)
	r.close(id, bc)
	return bc[0].Resp, bc[0].Err
}

func (r *tracedRPC) CallBatch(ctx context.Context, calls []*transport.BatchCall) {
	if len(calls) == 0 {
		return
	}
	id := r.open(ctx, calls)
	r.inner.CallBatch(ctx, calls)
	r.close(id, calls)
}

// link gives every handler span its parent: the call span that carried
// the same request and whose interval contains the handler's. Both lists
// are in start order, so each key's candidates are consumed front to
// back. It returns how many handlers found no parent.
func (t *tracer) link() (unmatched int) {
	byKey := make(map[callKey][]int32)
	for _, c := range t.calls {
		byKey[c.key] = append(byKey[c.key], c.id)
	}
	sort.Slice(t.handlers, func(i, j int) bool {
		return t.spans[t.handlers[i].id-1].start < t.spans[t.handlers[j].id-1].start
	})
	for _, h := range t.handlers {
		if h.key.kind == wire.KDrainLogs || h.key.kind == wire.KResolveAddr {
			continue // sent outside any traced call: by the drain, by a connection pool
		}
		hs := &t.spans[h.id-1]
		cands := byKey[h.key]
		for len(cands) > 0 && cands[0] == 0 {
			cands = cands[1:]
		}
		byKey[h.key] = cands
		found := false
		for i, id := range cands {
			if id == 0 {
				continue
			}
			cs := &t.spans[id-1]
			if cs.start <= hs.start && hs.end <= cs.end {
				hs.parent = id
				cands[i] = 0
				found = true
				break
			}
		}
		if !found {
			unmatched++
		}
	}
	return unmatched
}

// children indexes span ids by parent.
func (t *tracer) children() map[int32][]int32 {
	out := make(map[int32][]int32)
	for i := range t.spans {
		if p := t.spans[i].parent; p != 0 {
			out[p] = append(out[p], int32(i+1))
		}
	}
	return out
}

// selfTime is a span's duration minus the part of it its children
// cover (overlapping children are counted once).
func (t *tracer) selfTime(id int32, kids []int32) int64 {
	s := t.spans[id-1]
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := t.spans[k-1]
		lo, hi := max(c.start, s.start), min(c.end, s.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, edge int64
	for _, v := range ivs {
		if v.hi <= edge {
			continue
		}
		covered += v.hi - max(v.lo, edge)
		edge = v.hi
	}
	return s.end - s.start - covered
}

// writeJSON dumps every span: name, start, end, parent, kind, node,
// bytes. Times are nanoseconds since the tracer was created.
func (t *tracer) writeJSON(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, "[")
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n{\"id\":%d,\"name\":%q,\"start\":%d,\"end\":%d,\"parent\":%d,\"kind\":%q,\"node\":%d,\"bytes\":%d}",
			i+1, spanNames[s.name], s.start, s.end, s.parent, kindName(s.kind), s.node, s.bytes)
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func kindName(k wire.Kind) string {
	switch k {
	case opUpdate:
		return "update"
	case opRead:
		return "read"
	case opWrite:
		return "write"
	case opDegradedRead:
		return "degraded-read"
	case 0:
		return ""
	}
	return k.String()
}
