package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// FuzzVectoredFrame: the frames the writers ship as a header buffer plus
// borrowed payload entries are byte-for-byte the frames the one-buffer
// encoding built, WireSize stays exact, and a reply read header-first
// with its payload spliced into a destination round-trips.
func FuzzVectoredFrame(f *testing.F) {
	f.Add(uint8(wire.KPing), uint8(0), uint32(0), uint32(0), "", int32(0), int64(1))
	f.Add(uint8(wire.KUpdate), uint8(6), uint32(4<<10), uint32(0), "", int32(0), int64(2))
	f.Add(uint8(wire.KParixLogAdd), uint8(10), uint32(200), uint32(300), "/f/a", int32(-1), int64(3))
	f.Add(uint8(wire.KWriteBlock), uint8(10), uint32(64<<10), uint32(32<<10), "", int32(1), int64(4))
	f.Add(uint8(wire.KRead), uint8(3), uint32(40<<10), uint32(0), "remote: stale epoch", int32(-40<<10), int64(5))
	f.Add(uint8(wire.KMDSCreate), uint8(0), uint32(0), uint32(0), "/files/trace-0042.dat", int32(7), int64(6))
	f.Fuzz(func(t *testing.T, kind, nodes uint8, dataLen, data2Len uint32, name string, slack int32, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		payload := func(n uint32) []byte {
			if n %= 96 << 10; n == 0 {
				return nil
			}
			b := make([]byte, n)
			rng.Read(b)
			return b
		}
		if len(name) > 0xFFFF {
			name = name[:0xFFFF]
		}
		loc := wire.StripeLoc{Epoch: rng.Uint64()}
		for i := 0; i < int(nodes%16); i++ {
			loc.Nodes = append(loc.Nodes, wire.NodeID(rng.Int31()))
		}
		m := &wire.Msg{
			Kind: wire.Kind(kind), Block: wire.BlockID{Ino: rng.Uint64(), Stripe: rng.Uint32(), Idx: uint8(rng.Intn(16))},
			Off: rng.Uint32(), Size: rng.Uint32(), Loc: loc, Name: name, Seq: rng.Uint64(),
			Data: payload(dataLen), Data2: payload(data2Len),
		}
		id := rng.Uint64()

		hdr := m.AppendHeaderTo(nil)
		if got := append(append(append([]byte(nil), hdr...), m.Data...), m.Data2...); !bytes.Equal(got, m.AppendTo(nil)) {
			t.Fatal("Msg: AppendHeaderTo + payloads differs from AppendTo")
		}
		if n := int64(len(hdr) + len(m.Data) + len(m.Data2)); n != m.WireSize() {
			t.Fatalf("Msg: header %d + payloads = %d bytes, WireSize %d", len(hdr), n, m.WireSize())
		}
		mf, err := msgFrame(id, m)
		if err != nil {
			t.Fatal(err)
		}
		want := m.AppendTo(appendFrameHeader(nil, uint32(m.WireSize()), frameMsg, id))
		if got := bytes.Join(mf.appendTo(nil), nil); !bytes.Equal(got, want) || mf.size() != int64(len(want)) {
			t.Fatal("Msg: vectored frame differs from the one-buffer frame")
		}
		mf.release()

		r := &wire.Resp{Err: name, Code: wire.Status(kind % 5), Data: m.Data, Ino: m.Block.Ino, Loc: loc, Val: int64(m.Seq), Cost: time.Duration(m.Off)}
		rhdr := r.AppendHeaderTo(nil)
		if got := append(append([]byte(nil), rhdr...), r.Data...); !bytes.Equal(got, r.AppendTo(nil)) {
			t.Fatal("Resp: AppendHeaderTo + payload differs from AppendTo")
		}
		if n := int64(len(rhdr) + len(r.Data)); n != r.WireSize() {
			t.Fatalf("Resp: header %d + payload = %d bytes, WireSize %d", len(rhdr), n, r.WireSize())
		}
		rf := respFrame(id, r)
		stream := bytes.Join(rf.appendTo(nil), nil)
		rf.release()
		if want := r.AppendTo(appendFrameHeader(nil, uint32(r.WireSize()), frameResp, id)); !bytes.Equal(stream, want) {
			t.Fatal("Resp: vectored frame differs from the one-buffer frame")
		}

		// Read it back the way the client reader does, into a destination
		// of len(Data)+slack bytes.
		dst := make([]byte, max(0, len(r.Data)+int(slack%(64<<10))))
		src := bytes.NewReader(stream)
		br := bufio.NewReaderSize(src, connReadBufSize)
		fh, err := readFrameHeader(br)
		if err != nil || fh.id != id || fh.typ != frameResp {
			t.Fatalf("frame header: %+v, %v", fh, err)
		}
		got, body, err := readResp(br, src, int(fh.n), dst)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", r, got)
		}
		if fits := len(r.Data) <= len(dst); fits != (body == nil) {
			t.Fatalf("payload of %d bytes, destination of %d: pooled body = %v", len(r.Data), len(dst), body != nil)
		}
		if body == nil && len(r.Data) > 0 && &got.Data[0] != &dst[0] {
			t.Fatal("a fitting payload did not land in the destination")
		}
		putFrameBuf(body)
		if br.Buffered() != 0 || src.Len() != 0 {
			t.Fatal("reply not consumed exactly")
		}
	})
}

// stallServer accepts one connection and hands it to the test, which
// drives the peer's side of the protocol by hand.
func stallServer(t *testing.T) (addr string, conns <-chan net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		ch <- conn
	}()
	return ln.Addr().String(), ch
}

// (a) A call whose borrowed 8 MiB payload is mid-flush when its ctx
// fires — the server stopped reading — returns promptly, and what the
// caller writes into the payload afterwards never reaches a frame the
// server decodes: the interlock fails the stuck connection instead of
// letting the writer keep reading the caller's buffer.
func TestCancelMidFlushNeverShipsLaterBytes(t *testing.T) {
	addr, conns := stallServer(t)
	cli := NewTCPClient(map[wire.NodeID]string{1: addr})
	defer cli.Close()

	const size = 8 << 20
	payload := bytes.Repeat([]byte{0xAA}, size)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := cli.Call(ctx, 1, &wire.Msg{Kind: wire.KWriteBlock, Data: payload})
		done <- err
	}()
	conn := <-conns
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(64 << 10)
	br := bufio.NewReader(conn)
	fh, err := readFrameHeader(br)
	if err != nil {
		t.Fatal(err)
	}
	// Take the first MiB, then stop reading: the rest of the frame backs
	// up in the socket buffers and the client's writer blocks.
	if _, err := io.CopyN(io.Discard, br, 1<<20); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancel took %v to unblock the call", elapsed)
	}
	for i := range payload {
		payload[i] = 0x55 // the caller owns its buffer again
	}
	// Resume reading: whatever still arrives must be the bytes the
	// payload held when the call was made — or no complete frame at all.
	rest := make([]byte, int(fh.n)-(1<<20))
	n, err := io.ReadFull(br, rest)
	if err == nil {
		t.Log("the whole frame was already in the socket buffers when the ctx fired")
	}
	if i := bytes.IndexByte(rest[:n], 0x55); i >= 0 {
		t.Fatalf("byte %d of the frame body was written into the payload after Call returned", (1<<20)+i)
	}
}

// (b) A call whose reply is streaming into its destination when its ctx
// fires returns only once the reader has let go of the buffer: after
// Call returns, the destination is never written again.
func TestCancelMidDestinationReadNeverWritesLater(t *testing.T) {
	addr, conns := stallServer(t)
	cli := NewTCPClient(map[wire.NodeID]string{1: addr})
	defer cli.Close()

	const size = 4 << 20
	dst := make([]byte, size)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		msg := &wire.Msg{Kind: wire.KRead, Size: size}
		msg.SetReplyBuf(dst)
		_, err := cli.Call(ctx, 1, msg)
		done <- err
	}()
	conn := <-conns
	defer conn.Close()
	br := bufio.NewReader(conn)
	fh, err := readFrameHeader(br)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.CopyN(io.Discard, br, int64(fh.n)); err != nil {
		t.Fatal(err)
	}
	// Reply header plus the first MiB of the payload, then a stall.
	reply := bytes.Repeat([]byte{0xAA}, size)
	frame, _ := appendRespHeader(nil, fh.id, &wire.Resp{Data: reply})
	if _, err := conn.Write(append(frame, reply[:1<<20]...)); err != nil {
		t.Fatal(err)
	}
	// Wait until the reader is filling dst, then cancel.
	mc := cliConn(t, cli, 1)
	for deadline := time.Now().Add(5 * time.Second); !filling(mc); {
		if time.Now().After(deadline) {
			t.Fatal("reader never started filling the destination")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	const sentinel = 0x5C
	for i := range dst {
		dst[i] = sentinel
	}
	// Send the rest and hang up; a reader still attached to dst would
	// now write it.
	conn.Write(reply[1<<20:])
	conn.Close()
	for deadline := time.Now().Add(5 * time.Second); !mc.broken(); {
		if time.Now().After(deadline) {
			t.Fatal("connection never failed")
		}
		time.Sleep(time.Millisecond)
	}
	if i := firstOther(dst, sentinel); i >= 0 {
		t.Fatalf("destination byte %d written after Call returned", i)
	}
}

// firstOther returns the index of the first byte of b that is not v, or
// -1.
func firstOther(b []byte, v byte) int {
	for i, c := range b {
		if c != v {
			return i
		}
	}
	return -1
}

// filling reports whether mc's reader is reading a reply into a
// destination.
func filling(mc *muxConn) bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	for _, c := range mc.pending {
		if c.filling {
			return true
		}
	}
	return false
}

// cliConn returns the client's current connection to a node.
func cliConn(t *testing.T, cli *TCPClient, to wire.NodeID) *muxConn {
	t.Helper()
	cli.mu.Lock()
	slot := cli.conns[to]
	cli.mu.Unlock()
	if slot == nil {
		t.Fatalf("no connection to node %d", to)
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.conn == nil {
		t.Fatalf("no live connection to node %d", to)
	}
	return slot.conn
}

// (c) Replies a destination cannot take fall back to the pooled path:
// a payload larger than the destination, an error reply, a stale-epoch
// reply and an empty payload all come back intact with the destination
// untouched, and every pooled buffer is released.
func TestDestinationFallbacks(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 4<<10) // 64 KiB
	srv, err := ServeTCP(1, "127.0.0.1:0", func(_ context.Context, m *wire.Msg) *wire.Resp {
		switch m.Flag {
		case 1:
			return &wire.Resp{Data: big}
		case 2:
			return wire.ErrorResp(errors.New("disk on fire"))
		case 3:
			return wire.StaleEpochResp(m.Block, 1, 2)
		}
		return &wire.Resp{Val: 7}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewTCPClient(map[wire.NodeID]string{1: srv.Addr()})
	defer cli.Close()

	SetPoolDebug(true)
	defer SetPoolDebug(false)
	base := PoolDebugOutstanding()
	const sentinel = 0x5C
	for _, tc := range []struct {
		name  string
		flag  uint8
		check func(*wire.Resp) error
	}{
		{"payload larger than the destination", 1, func(r *wire.Resp) error {
			if !bytes.Equal(r.Data, big) {
				return fmt.Errorf("payload of %d bytes corrupted", len(r.Data))
			}
			return nil
		}},
		{"error reply", 2, func(r *wire.Resp) error {
			if r.Error() == nil || r.Code != wire.StatusError {
				return fmt.Errorf("lost the error: %+v", r)
			}
			return nil
		}},
		{"stale-epoch reply", 3, func(r *wire.Resp) error {
			if !r.IsStale() || !errors.Is(r.Error(), wire.ErrStaleEpoch) || r.Val != 2 {
				return fmt.Errorf("lost the stale rejection: %+v", r)
			}
			return nil
		}},
		{"empty payload", 0, func(r *wire.Resp) error {
			if len(r.Data) != 0 || r.Val != 7 {
				return fmt.Errorf("wrong reply: %+v", r)
			}
			return nil
		}},
	} {
		dst := bytes.Repeat([]byte{sentinel}, 1<<10)
		msg := &wire.Msg{Kind: wire.KRead, Flag: tc.flag}
		msg.SetReplyBuf(dst)
		resp, err := cli.Call(context.Background(), 1, msg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := tc.check(resp); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		resp.Release()
		if i := firstOther(dst, sentinel); i >= 0 {
			t.Errorf("%s: destination byte %d written", tc.name, i)
		}
	}
	if got := PoolDebugOutstanding(); got != base {
		t.Fatalf("pooled reply buffers outstanding: %d, want %d", got, base)
	}
}

// A handler's reply may alias its request body (echo): the server keeps
// the body out of the pool until the reply is flushed, so concurrent
// payload-sized echoes never see each other's bytes.
func TestEchoedRequestBodySurvivesUntilFlush(t *testing.T) {
	srv, err := ServeTCP(1, "127.0.0.1:0", echoHandler(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewTCPClient(map[wire.NodeID]string{1: srv.Addr()})
	defer cli.Close()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			payload := make([]byte, 48<<10+c*4096)
			dst := make([]byte, len(payload))
			for i := 0; i < 40; i++ {
				for j := range payload {
					payload[j] = byte(c*31 + i + j)
				}
				msg := &wire.Msg{Kind: wire.KPing, Data: payload}
				if i%2 == 0 {
					msg.SetReplyBuf(dst)
				}
				resp, err := cli.Call(context.Background(), 1, msg)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(resp.Data, payload) {
					t.Errorf("client %d call %d: echo corrupted", c, i)
					return
				}
				resp.Release()
			}
		}(c)
	}
	wg.Wait()
}
