package transport

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"runtime"
	"slices"
	"testing"

	"repro/internal/wire"
)

// rawAckServer answers every request frame with an empty response,
// reading bodies into one reused buffer per connection: a peer that
// allocates nothing per call. It returns the listen address.
func rawAckServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r := bufio.NewReader(conn)
				var body, out []byte
				for {
					h, err := readFrameHeader(r)
					if err != nil {
						return
					}
					body = slices.Grow(body[:0], int(h.n))[:h.n]
					if _, err := io.ReadFull(r, body); err != nil {
						return
					}
					out, _ = appendRespHeader(out[:0], h.id, &wire.Resp{})
					if _, err := conn.Write(out); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func writeBlockMsg(payload []byte) *wire.Msg {
	return &wire.Msg{
		Kind:  wire.KWriteBlock,
		From:  wire.ClientIDBase,
		Block: wire.BlockID{Ino: 7, Stripe: 3, Idx: 1},
		Size:  uint32(len(payload)),
		Loc:   wire.StripeLoc{Epoch: 9, Nodes: []wire.NodeID{1, 2, 3}},
		Data:  payload,
	}
}

// Encoding a KWriteBlock frame into a warm buffer must not allocate:
// this is the client hot path (every shard of every stripe goes through
// appendMsgHeader before the writer flush). The buffer holds only the
// frame and message headers — the payload rides the writev vector from
// the caller's slice — so it never grows with the payload either.
func TestEncodeWriteBlockFrameZeroAllocs(t *testing.T) {
	payload := make([]byte, 64<<10)
	msg := writeBlockMsg(payload)
	var buf []byte
	var err error
	// Warm once so buffer growth is paid before measuring.
	if buf, err = appendMsgHeader(buf[:0], 1, msg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf, err = appendMsgHeader(buf[:0], 1, msg)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("appendMsgHeader(KWriteBlock) = %.1f allocs/op, want 0", allocs)
	}
	if got, want := int64(len(buf)+len(payload)), frameHeaderSize+msg.WireSize(); got != want {
		t.Errorf("header %d + payload %d bytes, want frame of %d", len(buf), len(payload), want)
	}
	if cap(buf) >= len(payload) {
		t.Errorf("frame buffer has capacity %d: the payload was copied into it", cap(buf))
	}
}

// The server-side decode of a payload frame is allowed exactly one
// allocation: the wire.Msg itself. Data must alias the pooled body
// buffer (zero-copy), so any extra allocation means the codec started
// copying payloads again. The body is built the way it arrives: the
// header-only encoding, then the payload.
func TestServerDecodeWriteBlockFrameOneAlloc(t *testing.T) {
	payload := make([]byte, 64<<10)
	body := append(writeBlockMsg(payload).AppendHeaderTo(nil), payload...)
	allocs := testing.AllocsPerRun(100, func() {
		msg := new(wire.Msg)
		if err := msg.Decode(body); err != nil {
			t.Fatal(err)
		}
		if &msg.Data[0] != &body[len(body)-len(msg.Data)] {
			t.Fatal("decode copied the payload instead of aliasing the frame buffer")
		}
	})
	if allocs > 1 {
		t.Errorf("server decode of a KWriteBlock frame = %.1f allocs/op, want <= 1 (the Msg itself)", allocs)
	}
}

// allocGate runs call n times after a warm-up and fails if the process
// — client and server together — allocated a payload-sized buffer per
// call: the mean bytes per call must stay under an eighth of the
// payload, and the mean allocation count under maxAllocs.
func allocGate(t *testing.T, name string, payload int, maxAllocs float64, call func()) {
	t.Helper()
	for i := 0; i < 8; i++ {
		call() // dial, warm every pool
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, call)
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one extra warm-up call.
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("%s: %.0f B/call, %.1f allocs/call", name, perCall, allocs)
	if perCall >= float64(payload)/8 {
		t.Errorf("%s allocated %.0f bytes per call: a %d-byte payload is being copied into a fresh buffer", name, perCall, payload)
	}
	if allocs > maxAllocs {
		t.Errorf("%s: %.1f allocs per call, want <= %.0f", name, allocs, maxAllocs)
	}
}

// A 1 MiB KRead whose caller names a destination allocates no
// payload-sized buffer anywhere: the server writes the handler's slice
// from where it lies, and the client reads the payload into dst.
func TestReadIntoDestinationAllocatesNoPayload(t *testing.T) {
	const size = 1 << 20
	block := bytes.Repeat([]byte{0xA5}, size)
	srv, err := ServeTCP(1, "127.0.0.1:0", func(_ context.Context, m *wire.Msg) *wire.Resp {
		return &wire.Resp{Data: block}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewTCPClient(map[wire.NodeID]string{1: srv.Addr()})
	defer cli.Close()
	dst := make([]byte, size)
	ctx := context.Background()
	allocGate(t, "1 MiB KRead into a destination", size, 40, func() {
		msg := &wire.Msg{Kind: wire.KRead, Size: size}
		msg.SetReplyBuf(dst)
		resp, err := cli.Call(ctx, 1, msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Data) != size || &resp.Data[0] != &dst[0] {
			t.Fatal("reply payload did not land in the destination")
		}
		resp.Release()
	})
	if !bytes.Equal(dst, block) {
		t.Fatal("destination holds the wrong bytes")
	}
}

// A 1 MiB KWriteBlock send allocates no payload-sized buffer: the frame
// buffer holds headers only and the payload is written from the
// caller's slice. The peer is a raw loopback server that reads into one
// reused buffer, so the gate measures the sending side alone.
func TestWriteBlockSendAllocatesNoPayload(t *testing.T) {
	const size = 1 << 20
	cli := NewTCPClient(map[wire.NodeID]string{1: rawAckServer(t)})
	defer cli.Close()
	msg := writeBlockMsg(make([]byte, size))
	ctx := context.Background()
	allocGate(t, "1 MiB KWriteBlock send", size, 40, func() {
		resp, err := cli.Call(ctx, 1, msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Error(); err != nil {
			t.Fatal(err)
		}
		resp.Release()
	})
}
