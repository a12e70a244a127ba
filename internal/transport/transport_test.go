package transport

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/netsim"
	"repro/internal/wire"
)

func echoHandler(id wire.NodeID) Handler {
	return func(_ context.Context, msg *wire.Msg) *wire.Resp {
		return &wire.Resp{Data: msg.Data, Val: int64(id)}
	}
}

func TestInprocCall(t *testing.T) {
	nw := netsim.New(netsim.Ethernet25G())
	tr := NewInproc(nw)
	tr.Register(1, echoHandler(1))
	rpc := tr.Caller(wire.ClientIDBase)
	resp, err := rpc.Call(context.Background(), 1, &wire.Msg{Kind: wire.KPing, Data: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Data) != "hello" || resp.Val != 1 {
		t.Fatalf("bad response: %+v", resp)
	}
	if resp.Cost <= 0 {
		t.Fatal("simulated call must have positive network cost")
	}
	if nw.TotalTraffic() == 0 {
		t.Fatal("traffic not accounted")
	}
}

func TestInprocNilNetwork(t *testing.T) {
	tr := NewInproc(nil)
	tr.Register(2, echoHandler(2))
	resp, err := tr.Caller(1).Call(context.Background(), 2, &wire.Msg{Kind: wire.KPing})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cost != 0 {
		t.Fatal("nil network should be free")
	}
}

func TestInprocNodeDown(t *testing.T) {
	tr := NewInproc(nil)
	tr.Register(1, echoHandler(1))
	tr.Deregister(1)
	_, err := tr.Caller(2).Call(context.Background(), 1, &wire.Msg{Kind: wire.KPing})
	var down ErrNodeDown
	if err == nil {
		t.Fatal("expected error calling deregistered node")
	}
	if ok := errorsAs(err, &down); !ok || down.Node != 1 {
		t.Fatalf("want ErrNodeDown{1}, got %v", err)
	}
}

// errorsAs is a tiny local wrapper so the test reads clearly.
func errorsAs(err error, target *ErrNodeDown) bool {
	e, ok := err.(ErrNodeDown)
	if ok {
		*target = e
	}
	return ok
}

func TestInprocFromFieldSet(t *testing.T) {
	tr := NewInproc(nil)
	var got wire.NodeID
	tr.Register(3, func(_ context.Context, m *wire.Msg) *wire.Resp {
		got = m.From
		return nil
	})
	if _, err := tr.Caller(7).Call(context.Background(), 3, &wire.Msg{Kind: wire.KPing}); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("From = %d, want 7", got)
	}
}

func TestInprocConcurrent(t *testing.T) {
	nw := netsim.New(netsim.Ethernet25G())
	tr := NewInproc(nw)
	for id := wire.NodeID(1); id <= 4; id++ {
		tr.Register(id, echoHandler(id))
	}
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rpc := tr.Caller(wire.ClientIDBase + wire.NodeID(c))
			for i := 0; i < 100; i++ {
				to := wire.NodeID(1 + (c+i)%4)
				resp, err := rpc.Call(context.Background(), to, &wire.Msg{Kind: wire.KPing, Data: []byte{byte(i)}})
				if err != nil || resp.Val != int64(to) {
					t.Errorf("call failed: %v %+v", err, resp)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestTCPRoundTrip(t *testing.T) {
	srv, err := ServeTCP(1, "127.0.0.1:0", func(_ context.Context, m *wire.Msg) *wire.Resp {
		return &wire.Resp{Data: append([]byte("ack:"), m.Data...), Val: int64(m.Block.Ino)}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli := NewTCPClient(map[wire.NodeID]string{1: srv.Addr()})
	defer cli.Close()
	resp, err := cli.Call(context.Background(), 1, &wire.Msg{
		Kind:  wire.KUpdate,
		Block: wire.BlockID{Ino: 42, Stripe: 3, Idx: 1},
		Data:  []byte("payload"),
		Loc:   wire.StripeLoc{Nodes: []wire.NodeID{1, 2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Data) != "ack:payload" || resp.Val != 42 {
		t.Fatalf("bad response: %+v", resp)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
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
			for i := 0; i < 50; i++ {
				payload := []byte(fmt.Sprintf("c%d-i%d", c, i))
				resp, err := cli.Call(context.Background(), 1, &wire.Msg{Kind: wire.KPing, Data: payload})
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if string(resp.Data) != string(payload) {
					t.Errorf("cross-talk: sent %q got %q", payload, resp.Data)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestTCPUnknownNode(t *testing.T) {
	cli := NewTCPClient(nil)
	if _, err := cli.Call(context.Background(), 9, &wire.Msg{Kind: wire.KPing}); err == nil {
		t.Fatal("expected error for unknown node")
	}
}

func TestTCPLargePayload(t *testing.T) {
	srv, err := ServeTCP(1, "127.0.0.1:0", echoHandler(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewTCPClient(map[wire.NodeID]string{1: srv.Addr()})
	defer cli.Close()
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i)
	}
	resp, err := cli.Call(context.Background(), 1, &wire.Msg{Kind: wire.KWriteBlock, Data: big})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Data) != len(big) {
		t.Fatalf("echo length %d, want %d", len(resp.Data), len(big))
	}
	for i := 0; i < len(big); i += 100_003 {
		if resp.Data[i] != big[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
}

func TestTCPServerClose(t *testing.T) {
	srv, err := ServeTCP(1, "127.0.0.1:0", echoHandler(1))
	if err != nil {
		t.Fatal(err)
	}
	cli := NewTCPClient(map[wire.NodeID]string{1: srv.Addr()})
	defer cli.Close()
	if _, err := cli.Call(context.Background(), 1, &wire.Msg{Kind: wire.KPing}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Fresh connection must now fail.
	cli2 := NewTCPClient(map[wire.NodeID]string{1: srv.Addr()})
	defer cli2.Close()
	if _, err := cli2.Call(context.Background(), 1, &wire.Msg{Kind: wire.KPing}); err == nil {
		t.Fatal("expected error after server close")
	}
}

func TestWireKindString(t *testing.T) {
	if wire.KUpdate.String() != "update" {
		t.Fatal("Kind string broken")
	}
	if wire.Kind(200).String() == "" {
		t.Fatal("unknown kind should stringify")
	}
}

func TestWireSizes(t *testing.T) {
	// WireSize is exact for the binary codec: the 56-byte fixed Msg
	// header (which always carries the placement epoch) plus 4 bytes per
	// placement node plus the variable sections.
	m := &wire.Msg{Data: make([]byte, 100), Name: "name", Loc: wire.StripeLoc{Nodes: make([]wire.NodeID, 10)}}
	if want := int64(56 + 40 + 4 + 100); m.WireSize() != want {
		t.Fatalf("msg wire size = %d, want %d", m.WireSize(), want)
	}
	if got := int64(len(m.AppendTo(nil))); got != m.WireSize() {
		t.Fatalf("encoded %d bytes but WireSize says %d", got, m.WireSize())
	}
	r := &wire.Resp{Data: make([]byte, 30), Err: "xx"}
	if want := int64(44 + 30 + 2); r.WireSize() != want {
		t.Fatalf("resp wire size = %d, want %d", r.WireSize(), want)
	}
	if got := int64(len(r.AppendTo(nil))); got != r.WireSize() {
		t.Fatalf("encoded %d bytes but WireSize says %d", got, r.WireSize())
	}
	if (&wire.Msg{}).WireSize() != 56 {
		t.Fatalf("empty msg = %d, want the fixed header", (&wire.Msg{}).WireSize())
	}
}

func TestRespError(t *testing.T) {
	r := &wire.Resp{}
	if !r.OK() || r.Error() != nil {
		t.Fatal("empty Err must be OK")
	}
	r.Err = "boom"
	if r.OK() || r.Error() == nil {
		t.Fatal("non-empty Err must be an error")
	}
}

func TestBlockIDHelpers(t *testing.T) {
	b := wire.BlockID{Ino: 1, Stripe: 2, Idx: 3}
	if b.WithIdx(5).Idx != 5 || b.Idx != 3 {
		t.Fatal("WithIdx must not mutate receiver")
	}
	if b.String() == "" {
		t.Fatal("String empty")
	}
}
