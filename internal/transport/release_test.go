package transport

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// A redundant Release is absorbed in production builds: double-release
// is a bug, but turning it into a crash on every deployment would trade
// a pool inefficiency for an outage.
func TestDoubleReleaseIsNoOpByDefault(t *testing.T) {
	SetPoolDebug(false) // a poolpoison build arms the detector at init
	defer SetPoolDebug(poolPoisonBuild)
	body := getFrameBuf()
	*body = append(*body, 1, 2, 3)
	resp := &wire.Resp{Data: *body}
	resp.AttachRelease(newBufRelease(&framePool, body, &poolOutstanding))
	resp.Release()
	resp.Release() // must not panic, must not double-free
}

// Under the misuse detector the same bug panics: releasing twice would
// hand one buffer to two owners, which corrupts payloads far from the
// offending call site. Tests arm SetPoolDebug to catch it at the
// source.
func TestDoubleReleasePanicsUnderPoolDebug(t *testing.T) {
	SetPoolDebug(true)
	defer SetPoolDebug(false)
	body := getFrameBuf()
	*body = append(*body, 1, 2, 3)
	resp := &wire.Resp{Data: *body}
	resp.AttachRelease(newBufRelease(&framePool, body, &poolOutstanding))
	resp.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic under SetPoolDebug(true)")
		}
	}()
	resp.Release()
}

// Armed releases poison the buffer with 0xDB so a use-after-release
// reads loud garbage instead of silently observing whatever frame got
// the recycled memory next.
func TestReleasePoisonsBufferUnderPoolDebug(t *testing.T) {
	SetPoolDebug(true)
	defer SetPoolDebug(false)
	body := getFrameBuf()
	*body = append(*body, []byte("payload bytes")...)
	data := *body
	resp := &wire.Resp{Data: data}
	resp.AttachRelease(newBufRelease(&framePool, body, &poolOutstanding))
	resp.Release()
	for i, b := range data {
		if b != poisonByte {
			t.Fatalf("byte %d after Release = %#02x, want poison %#02x", i, b, poisonByte)
		}
	}
}

// The outstanding counter pairs every armed attach with its release.
func TestPoolDebugOutstandingBalances(t *testing.T) {
	SetPoolDebug(true)
	defer SetPoolDebug(false)
	start := PoolDebugOutstanding()
	var resps []*wire.Resp
	for i := 0; i < 4; i++ {
		body := getFrameBuf()
		resp := &wire.Resp{}
		resp.AttachRelease(newBufRelease(&framePool, body, &poolOutstanding))
		resps = append(resps, resp)
	}
	if got := PoolDebugOutstanding(); got != start+4 {
		t.Fatalf("outstanding after 4 attaches = %d, want %d", got, start+4)
	}
	for _, r := range resps {
		r.Release()
	}
	if got := PoolDebugOutstanding(); got != start {
		t.Fatalf("outstanding after releases = %d, want %d", got, start)
	}
}

// Release on a Resp that never had a buffer attached (in-process
// transports, structured-error replies built by handlers) is a no-op.
func TestReleaseWithoutAttachedBuffer(t *testing.T) {
	(&wire.Resp{}).Release()
}

// TestFrameWriterReleasesReplyOnceAfterFlush: the server lets go of a
// reply — and so runs its release — only after its frame has been
// written, and exactly once, also when the flush fails, after the
// writer has failed, and after it has closed.
func TestFrameWriterReleasesReplyOnceAfterFlush(t *testing.T) {
	srvEnd, cliEnd := net.Pipe()
	w := newFrameWriter(srvEnd)
	var counts [4]atomic.Int32
	queue := func(i int) {
		resp := &wire.Resp{Data: bytes.Repeat([]byte{byte(i)}, 4096)}
		resp.AttachRelease(func() { counts[i].Add(1) })
		w.send(respOut{frame: respFrame(uint64(i), resp), resp: resp})
	}
	waitFor := func(i int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for counts[i].Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("reply %d never released", i)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// net.Pipe is unbuffered: the flush cannot finish before the peer
	// has read the whole frame.
	queue(0)
	r := bufio.NewReader(cliEnd)
	h, err := readFrameHeader(r)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0].Load() != 0 {
		t.Fatal("reply released before its frame was flushed")
	}
	if _, err := io.ReadFull(r, make([]byte, h.n)); err != nil {
		t.Fatal(err)
	}
	waitFor(0)

	// The peer goes away: the flush fails and releases its reply, and a
	// reply queued on the failed writer is released at once.
	cliEnd.Close()
	queue(1)
	waitFor(1)
	queue(2)
	if counts[2].Load() != 1 {
		t.Fatal("a reply sent to a failed writer was not released at once")
	}
	w.close()
	queue(3)
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("reply %d released %d times, want once", i, n)
		}
	}
	srvEnd.Close()
}

// TestServerReleasesReplyBufAfterFlush: a handler serves payloads from
// ReplyBuf and attaches the release. Under the pool's debug mode a
// release before the flush would poison bytes still being written, so
// every payload arriving intact shows the server released after the
// flush, and the balance shows it released every buffer.
func TestServerReleasesReplyBufAfterFlush(t *testing.T) {
	SetPoolDebug(true)
	defer SetPoolDebug(false)
	base := PoolDebugOutstanding()
	srv, err := ServeTCP(1, "127.0.0.1:0", func(_ context.Context, msg *wire.Msg) *wire.Resp {
		buf, release := ReplyBuf(int(msg.Size))
		for i := range buf {
			buf[i] = byte(msg.Off) + byte(i)
		}
		resp := &wire.Resp{Data: buf}
		resp.AttachRelease(release)
		return resp
	})
	if err != nil {
		t.Fatal(err)
	}
	cli := NewTCPClient(map[wire.NodeID]string{1: srv.Addr()})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				n := 40<<10 + (c*25+i)*512
				resp, err := cli.Call(context.Background(), 1, &wire.Msg{Kind: wire.KRead, Off: uint32(c + i), Size: uint32(n)})
				if err != nil {
					t.Error(err)
					return
				}
				for j, b := range resp.Data {
					if b != byte(c+i)+byte(j) {
						t.Errorf("client %d call %d: byte %d = %#02x, payload released before its flush", c, i, j, b)
						resp.Release()
						return
					}
				}
				resp.Release()
			}
		}(c)
	}
	wg.Wait()
	cli.Close()
	srv.Close()
	if got := PoolDebugOutstanding(); got != base {
		t.Fatalf("buffers outstanding after the server closed: %d, want %d", got, base)
	}
}

// TestReplyBufPoisonsAndPanicsUnderPoolDebug: the reply pool's release
// is the transport's, with its misuse detector.
func TestReplyBufPoisonsAndPanicsUnderPoolDebug(t *testing.T) {
	SetPoolDebug(true)
	defer SetPoolDebug(false)
	buf, release := ReplyBuf(1000)
	if len(buf) != 1000 {
		t.Fatalf("ReplyBuf(1000) lent %d bytes", len(buf))
	}
	release()
	if !bytes.Equal(buf, bytes.Repeat([]byte{poisonByte}, len(buf))) {
		t.Fatal("released reply buffer not poisoned")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second release of a reply buffer did not panic")
		}
	}()
	release()
}

// A lent view's release ends the loan once. In production a second
// call is absorbed; under the misuse detector the loan counts as
// outstanding until released, a second release panics, and so does the
// release of a view whose bytes changed while it was lent.
func TestLendReleaseEndsLoanOnce(t *testing.T) {
	SetPoolDebug(false)
	defer SetPoolDebug(poolPoisonBuild)
	ended := 0
	release := LendRelease([]byte("block"), func() { ended++ })
	release()
	release()
	if ended != 1 {
		t.Fatalf("two releases ended the loan %d times, want 1", ended)
	}

	SetPoolDebug(true)
	start := PoolDebugOutstanding()
	view := []byte("block bytes")
	ended = 0
	release = LendRelease(view, func() { ended++ })
	if got := PoolDebugOutstanding(); got != start+1 {
		t.Fatalf("outstanding with one view lent = %d, want %d", got, start+1)
	}
	release()
	if got := PoolDebugOutstanding(); got != start || ended != 1 {
		t.Fatalf("after release: outstanding %d (want %d), loan ended %d times", got, start, ended)
	}
	if string(view) != "block bytes" {
		t.Fatalf("release changed the lent bytes to %q", view)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic under SetPoolDebug(true)", what)
			}
		}()
		f()
	}
	mustPanic("second release", release)
	release = LendRelease(view, func() { ended++ })
	view[0] = 'X'
	mustPanic("release of a view written while lent", release)
	if ended != 1 {
		t.Fatal("a refused release ended the loan")
	}
}
