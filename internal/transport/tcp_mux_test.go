package transport

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// countingListener wraps a listener and counts accepted connections.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// serveCounted starts a TCP server whose accepted-connection count the
// test can read.
func serveCounted(t *testing.T, id wire.NodeID, h Handler) (*TCPServer, *countingListener) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	s := &TCPServer{id: id, handler: h, ln: cl, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	t.Cleanup(func() { s.Close() })
	return s, cl
}

// TestPipelinedCallsShareOneConnection: many concurrent calls to one
// destination are multiplexed over a single TCP connection, not one
// connection per in-flight call like the retired pool.
func TestPipelinedCallsShareOneConnection(t *testing.T) {
	block := make(chan struct{})
	srv, cl := serveCounted(t, 1, func(_ context.Context, m *wire.Msg) *wire.Resp {
		<-block // hold every request in flight simultaneously
		return &wire.Resp{Data: m.Data}
	})
	cli := NewTCPClient(map[wire.NodeID]string{1: srv.Addr()})
	defer cli.Close()

	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := cli.Call(context.Background(), 1, &wire.Msg{Kind: wire.KPing, Data: []byte{byte(i)}})
			if err == nil && (len(resp.Data) != 1 || resp.Data[0] != byte(i)) {
				err = fmt.Errorf("response demuxed to the wrong call: %v", resp.Data)
			}
			errs[i] = err
		}(i)
	}
	// Give every call time to be enqueued and flushed before releasing
	// the handlers.
	time.Sleep(100 * time.Millisecond)
	close(block)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := cl.accepted.Load(); got != 1 {
		t.Fatalf("%d in-flight calls used %d connections, want 1", n, got)
	}
}

// TestCallBatch: a batch spanning several destinations delivers every
// call and demuxes each response to its own slot; same-destination
// calls share one connection.
func TestCallBatch(t *testing.T) {
	srvs := make([]*TCPServer, 3)
	addrs := make(map[wire.NodeID]string)
	for i := range srvs {
		id := wire.NodeID(i + 1)
		s, err := ServeTCP(id, "127.0.0.1:0", echoHandler(id))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		srvs[i] = s
		addrs[id] = s.Addr()
	}
	cli := NewTCPClient(addrs)
	defer cli.Close()

	var calls []*BatchCall
	for i := 0; i < 12; i++ {
		calls = append(calls, &BatchCall{
			To:  wire.NodeID(i%3 + 1),
			Msg: &wire.Msg{Kind: wire.KPing, Data: []byte{byte(i)}},
		})
	}
	cli.CallBatch(context.Background(), calls)
	for i, bc := range calls {
		if bc.Err != nil {
			t.Fatalf("call %d: %v", i, bc.Err)
		}
		if bc.Resp.Val != int64(bc.To) || len(bc.Resp.Data) != 1 || bc.Resp.Data[0] != byte(i) {
			t.Fatalf("call %d: wrong response %+v", i, bc.Resp)
		}
	}
}

// TestInprocCallBatch: the in-process transport's CallBatch completes
// every call, and a call to a down node fails alone.
func TestInprocCallBatch(t *testing.T) {
	tr := NewInproc(nil)
	tr.Register(1, echoHandler(1))
	tr.Register(2, echoHandler(2))
	calls := []*BatchCall{
		{To: 1, Msg: &wire.Msg{Kind: wire.KPing}},
		{To: 2, Msg: &wire.Msg{Kind: wire.KPing}},
		{To: 9, Msg: &wire.Msg{Kind: wire.KPing}}, // down
	}
	tr.Caller(wire.ClientIDBase).CallBatch(context.Background(), calls)
	if calls[0].Err != nil || calls[0].Resp.Val != 1 {
		t.Fatalf("call 0: %+v / %v", calls[0].Resp, calls[0].Err)
	}
	if calls[1].Err != nil || calls[1].Resp.Val != 2 {
		t.Fatalf("call 1: %+v / %v", calls[1].Resp, calls[1].Err)
	}
	if calls[2].Err == nil {
		t.Fatal("call to a down node must fail")
	}
}

// TestServerRejectsForeignFraming: bytes that are not v1 frames (an old
// gob stream, random garbage) get the connection closed instead of a
// crash or a hang.
func TestServerRejectsForeignFraming(t *testing.T) {
	srv, err := ServeTCP(1, "127.0.0.1:0", echoHandler(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Old-framing shape: length prefix then a gob type descriptor — the
	// frame-type byte is wrong, so the server must hang up.
	if _, err := conn.Write([]byte{0, 0, 0, 32, 0x40, 1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("server must close a foreign-framing connection, got %v", err)
	}
}

// TestClientRejectsForeignResponse: a server that answers with a
// non-v1 frame fails the call with a format error rather than hanging.
func TestClientRejectsForeignResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				io.CopyN(io.Discard, conn, frameHeaderSize) // swallow the request header
				conn.Write([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x99, 0, 0, 0, 0, 0, 0, 0, 0})
				io.Copy(io.Discard, conn)
			}(conn)
		}
	}()
	cli := NewTCPClient(map[wire.NodeID]string{1: ln.Addr().String()})
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = cli.Call(ctx, 1, &wire.Msg{Kind: wire.KPing})
	if err == nil {
		t.Fatal("foreign response framing must fail the call")
	}
	if !strings.Contains(err.Error(), "wire format") && !strings.Contains(err.Error(), "frame") {
		t.Fatalf("error should name the framing problem: %v", err)
	}
}

// TestBatchCancelUnblocksImmediately: a cancelled ctx abandons every
// call of a batch without waiting out the round trip.
func TestBatchCancelUnblocksImmediately(t *testing.T) {
	block := make(chan struct{})
	srv, err := ServeTCP(1, "127.0.0.1:0", func(_ context.Context, m *wire.Msg) *wire.Resp {
		<-block
		return &wire.Resp{}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Release the handlers before srv.Close runs (LIFO): Close waits for
	// in-flight requests to finish.
	defer close(block)
	cli := NewTCPClient(map[wire.NodeID]string{1: srv.Addr()})
	defer cli.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	calls := []*BatchCall{
		{To: 1, Msg: &wire.Msg{Kind: wire.KPing}},
		{To: 1, Msg: &wire.Msg{Kind: wire.KPing}},
	}
	start := time.Now()
	cli.CallBatch(ctx, calls)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel took %v to unblock the batch", elapsed)
	}
	for i, bc := range calls {
		if bc.Err == nil {
			t.Fatalf("call %d must carry the ctx error", i)
		}
	}
}

// TestLargePayloadRoundTrip pushes a multi-megabyte frame through the
// real transport: framing, pooled buffers and demux must hold past the
// pooled-capacity bound.
func TestLargePayloadRoundTrip(t *testing.T) {
	srv, err := ServeTCP(1, "127.0.0.1:0", echoHandler(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewTCPClient(map[wire.NodeID]string{1: srv.Addr()})
	defer cli.Close()
	payload := make([]byte, 8<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	resp, err := cli.Call(context.Background(), 1, &wire.Msg{Kind: wire.KWriteBlock, Data: payload})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Data) != len(payload) {
		t.Fatalf("echoed %d bytes, want %d", len(resp.Data), len(payload))
	}
	for i := range payload {
		if resp.Data[i] != payload[i] {
			t.Fatalf("payload corrupted at byte %d", i)
		}
	}
}

// BenchmarkTCPRoundTrip measures sequential loopback round-trips/s on
// the multiplexed transport.
func BenchmarkTCPRoundTrip(b *testing.B) {
	srv, err := ServeTCP(1, "127.0.0.1:0", echoHandler(1))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli := NewTCPClient(map[wire.NodeID]string{1: srv.Addr()})
	defer cli.Close()
	msg := &wire.Msg{Kind: wire.KPing, Data: make([]byte, 4<<10)}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Call(ctx, 1, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPRoundTripPipelined measures concurrent loopback
// round-trips/s — the case the multiplexed connection exists for.
func BenchmarkTCPRoundTripPipelined(b *testing.B) {
	srv, err := ServeTCP(1, "127.0.0.1:0", echoHandler(1))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli := NewTCPClient(map[wire.NodeID]string{1: srv.Addr()})
	defer cli.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		msg := &wire.Msg{Kind: wire.KPing, Data: make([]byte, 4<<10)}
		for pb.Next() {
			if _, err := cli.Call(ctx, 1, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
