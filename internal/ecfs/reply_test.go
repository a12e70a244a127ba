package ecfs

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/erasure"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// ackRPC answers every peer call with an empty success: an OSD under
// test forwards its stage-1 replicas into it.
type ackRPC struct{}

func (ackRPC) Call(context.Context, wire.NodeID, *wire.Msg) (*wire.Resp, error) {
	return &wire.Resp{}, nil
}

func (ackRPC) CallBatch(_ context.Context, calls []*transport.BatchCall) {
	for _, bc := range calls {
		bc.Resp = &wire.Resp{}
	}
}

// replyOSD returns a TSUE OSD — in memory, or durable in dataDir when
// it is not empty — holding one written block of blockSize random
// bytes, and the read requests the OSD serves it by: a KRead of the
// whole block, a plain KBlockFetch, and a read-through one.
func replyOSD(t *testing.T, blockSize int, dataDir string) (*OSD, []byte, []*wire.Msg) {
	t.Helper()
	cfg := update.DefaultConfig()
	cfg.BlockSize = blockSize
	o, err := NewOSDAt(1, device.ChameleonSSD(), ackRPC{}, "tsue", cfg, erasure.Vandermonde, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	b := wire.BlockID{Ino: 1}
	content := make([]byte, blockSize)
	rand.New(rand.NewSource(5)).Read(content)
	if resp := o.Handler(context.Background(), &wire.Msg{Kind: wire.KWriteBlock, Block: b, Loc: replyLoc, K: 2, M: 1, Data: content}); !resp.OK() {
		t.Fatal(resp.Err)
	}
	return o, content, []*wire.Msg{
		{Kind: wire.KRead, Block: b, Size: uint32(blockSize), Loc: replyLoc},
		{Kind: wire.KBlockFetch, Block: b},
		{Kind: wire.KBlockFetch, Block: b, Flag: wire.FetchReadThrough},
	}
}

// replyLoc is the placement of replyOSD's stripe.
var replyLoc = wire.StripeLoc{Nodes: []wire.NodeID{1, 2, 3}, Epoch: 1}

// checkReplies serves each read, checks its bytes against want, releases
// it and checks that the release poisoned the bytes or, for a reply
// lent the block's own bytes, left them alone; a second release panics
// either way, and no reply stays outstanding.
func checkReplies(t *testing.T, o *OSD, reads []*wire.Msg, want []byte, lent bool) {
	t.Helper()
	transport.SetPoolDebug(true)
	defer transport.SetPoolDebug(false)
	base := transport.PoolDebugOutstanding()
	for _, msg := range reads {
		resp := o.Handler(context.Background(), msg)
		w := want[msg.Off:]
		if msg.Size > 0 {
			w = w[:msg.Size]
		}
		if !resp.OK() || !bytes.Equal(resp.Data, w) {
			t.Fatalf("%v [%d,+%d) flag %d: err %q or wrong bytes", msg.Kind, msg.Off, msg.Size, msg.Flag, resp.Err)
		}
		data := resp.Data
		resp.Release()
		if poisoned := bytes.Equal(data, bytes.Repeat([]byte{0xDB}, len(data))); poisoned == lent {
			t.Fatalf("%v [%d,+%d) flag %d: poisoned at release %v, want lent %v", msg.Kind, msg.Off, msg.Size, msg.Flag, poisoned, lent)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%v flag %d: second Release did not panic", msg.Kind, msg.Flag)
				}
			}()
			resp.Release()
		}()
	}
	if got := transport.PoolDebugOutstanding(); got != base {
		t.Fatalf("replies outstanding: %d, want %d", got, base)
	}
}

// TestOSDReplyPoolPoisonsAndPanics: under the transport's pool debug
// mode, a read or block-fetch reply the OSD fills — every read on a
// durable OSD, whose engine cannot lend its pages, and a read of an
// in-memory block that DataLog content is laid over or served from —
// comes from the reply pool: releasing it poisons the buffer, and
// releasing it again panics.
func TestOSDReplyPoolPoisonsAndPanics(t *testing.T) {
	o, content, reads := replyOSD(t, 64<<10, t.TempDir())
	checkReplies(t, o, reads, content, false)

	o, content, reads = replyOSD(t, 64<<10, "")
	upd := &wire.Msg{Kind: wire.KUpdate, Block: reads[0].Block, Off: 4 << 10, Data: bytes.Repeat([]byte{0xC3}, 100), K: 2, M: 1, Loc: replyLoc}
	if resp := o.Handler(context.Background(), upd); !resp.OK() {
		t.Fatal(resp.Err)
	}
	copy(content[upd.Off:], upd.Data)
	cached := *reads[0]
	cached.Off, cached.Size = upd.Off, uint32(len(upd.Data)) // a DataLog cache hit
	checkReplies(t, o, []*wire.Msg{reads[0], &cached, reads[2]}, content, false)
}

// TestMemOSDRepliesLendBlock: an in-memory OSD with nothing pending
// replies to a read or block fetch with the block's own bytes — two
// replies alias one buffer, and a release neither poisons them nor
// escapes the double-release check. A full write to the block while a
// reply holds it moves the block to a fresh buffer: the held reply keeps
// the bytes it was lent, and the next read serves the new ones.
func TestMemOSDRepliesLendBlock(t *testing.T) {
	o, content, reads := replyOSD(t, 64<<10, "")
	checkReplies(t, o, reads, content, true)

	ctx := context.Background()
	a, b := o.Handler(ctx, reads[0]), o.Handler(ctx, reads[1])
	if &a.Data[0] != &b.Data[0] {
		t.Fatal("two reads of one block do not share its bytes")
	}
	next := bytes.Repeat([]byte{0x77}, len(content))
	if resp := o.Handler(ctx, &wire.Msg{Kind: wire.KWriteBlock, Block: reads[0].Block, Loc: replyLoc, K: 2, M: 1, Data: next}); !resp.OK() {
		t.Fatal(resp.Err)
	}
	if !bytes.Equal(a.Data, content) || !bytes.Equal(b.Data, content) {
		t.Fatal("a write changed the bytes a held reply was lent")
	}
	a.Release()
	b.Release()
	checkReplies(t, o, reads, next, true)
}

// TestWarmReadAllocatesNoPayload gates the OSD's read path: once the
// reply pool is warm, a 1 MiB KRead or KBlockFetch whose reply is
// released allocates no payload-sized buffer. The bound is three
// quarters of the payload, not less: under the race detector sync.Pool
// drops a quarter of what is put back at random, so a quarter of the
// calls miss the pool there.
func TestWarmReadAllocatesNoPayload(t *testing.T) {
	const blockSize = 1 << 20
	o, content, reads := replyOSD(t, blockSize, "")
	ctx := context.Background()
	for _, msg := range reads {
		call := func() {
			resp := o.Handler(ctx, msg)
			if !resp.OK() || len(resp.Data) != blockSize {
				t.Fatalf("%v flag %d: err %q, %d bytes", msg.Kind, msg.Flag, resp.Err, len(resp.Data))
			}
			resp.Release()
		}
		for i := 0; i < 4; i++ {
			call()
		}
		const runs = 40
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		perCall := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%v flag %d: %.0f B/call", msg.Kind, msg.Flag, perCall)
		if perCall >= blockSize*3/4 {
			t.Errorf("%v flag %d allocated %.0f bytes per call: the payload is read into a fresh buffer", msg.Kind, msg.Flag, perCall)
		}
	}
	resp := o.Handler(ctx, reads[0])
	defer resp.Release()
	if !bytes.Equal(resp.Data, content) {
		t.Fatal("a read from a recycled reply buffer returned the wrong bytes")
	}
}

// TestOversizedReadRefusedBeforeBuffer: a KRead's size comes off the
// wire, so one past the block is refused before a reply buffer is lent
// for it. A 4 GiB request must cost an error reply, not 4 GiB.
func TestOversizedReadRefusedBeforeBuffer(t *testing.T) {
	const blockSize = 64 << 10
	o, _, reads := replyOSD(t, blockSize, "")
	for _, bad := range []struct{ off, size uint32 }{
		{0, 1<<32 - 1},
		{1<<32 - 1, 1<<32 - 1},
		{1, blockSize},
	} {
		msg := *reads[0]
		msg.Off, msg.Size = bad.off, bad.size
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp := o.Handler(context.Background(), &msg)
		runtime.ReadMemStats(&after)
		if resp.OK() {
			resp.Release()
			t.Fatalf("read [%d,+%d) of a %d-byte block served", bad.off, bad.size, blockSize)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > blockSize {
			t.Errorf("refusing read [%d,+%d) allocated %d bytes", bad.off, bad.size, grew)
		}
	}
}

// TestTCPLentReadsRaceWrites serves 1 MiB KReads and KBlockFetches of
// an in-memory FO OSD's data and parity blocks over TCP while other
// clients overwrite, fully rewrite and fold the same blocks. Every
// write keeps all of a block's bytes equal, so a reply that mixed two
// versions — a write landing in a lent block before its flush left —
// shows as two byte values, and the pool debug mode checks at every
// release that a lent view did not change. Run under -race.
func TestTCPLentReadsRaceWrites(t *testing.T) {
	const blockSize = 1 << 20
	cfg := update.DefaultConfig()
	cfg.BlockSize = blockSize
	o, err := NewOSD(1, device.ChameleonSSD(), ackRPC{}, "fo", cfg, erasure.Vandermonde)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	srv, err := transport.ServeTCP(1, "127.0.0.1:0", o.Handler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	settled := armPoolDebug(t)

	data, parity := wire.BlockID{Ino: 1}, wire.BlockID{Ino: 1, Idx: 2}
	for _, b := range []wire.BlockID{data, parity} {
		if resp := o.Handler(context.Background(), &wire.Msg{Kind: wire.KWriteBlock, Block: b, Loc: replyLoc, K: 2, M: 1, Data: make([]byte, blockSize)}); !resp.OK() {
			t.Fatal(resp.Err)
		}
	}
	writes := []func(v byte) *wire.Msg{
		func(v byte) *wire.Msg { // overwrite in place
			return &wire.Msg{Kind: wire.KUpdate, Block: data, Loc: replyLoc, K: 2, M: 1, Data: bytes.Repeat([]byte{v}, blockSize)}
		},
		func(v byte) *wire.Msg { // full-block rewrite
			return &wire.Msg{Kind: wire.KWriteBlock, Block: data, Loc: replyLoc, K: 2, M: 1, Data: bytes.Repeat([]byte{v}, blockSize)}
		},
		func(v byte) *wire.Msg { // parity fold
			return &wire.Msg{Kind: wire.KParityDelta, Block: parity, Idx: 0, Loc: replyLoc, K: 2, M: 1, Data: bytes.Repeat([]byte{v}, blockSize)}
		},
	}
	reads := []*wire.Msg{
		{Kind: wire.KRead, Block: data, Size: blockSize, Loc: replyLoc},
		{Kind: wire.KBlockFetch, Block: data},
		{Kind: wire.KRead, Block: parity, Size: blockSize, Loc: replyLoc},
		{Kind: wire.KBlockFetch, Block: parity, Flag: wire.FetchReadThrough},
	}
	addrs := map[wire.NodeID]string{1: srv.Addr()}
	ctx := context.Background()
	var wg sync.WaitGroup
	for w, write := range writes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rpc := transport.NewTCPClient(addrs)
			defer rpc.Close()
			for i := 1; i <= 12; i++ {
				resp, err := rpc.Call(ctx, 1, write(byte(w*16+i)))
				if err != nil || !resp.OK() {
					t.Errorf("write %d: %v %v", w, err, resp.Error())
					return
				}
				resp.Release()
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rpc := transport.NewTCPClient(addrs)
			defer rpc.Close()
			for i := 0; i < 16; i++ {
				msg := *reads[(r+i)%len(reads)]
				resp, err := rpc.Call(ctx, 1, &msg)
				if err != nil || !resp.OK() {
					t.Errorf("%v of %v: %v %v", msg.Kind, msg.Block, err, resp.Error())
					return
				}
				if len(resp.Data) != blockSize || bytes.Count(resp.Data, resp.Data[:1]) != blockSize {
					t.Errorf("%v of %v: reply holds more than one version of the block", msg.Kind, msg.Block)
				}
				resp.Release()
			}
		}()
	}
	wg.Wait()
	settled()
}

// tcpFOOSD serves an in-memory FO OSD of blockSize blocks over TCP
// with the pool debug mode armed, and returns it with a client of its
// server.
func tcpFOOSD(t *testing.T, blockSize int) (*OSD, *transport.TCPClient) {
	t.Helper()
	cfg := update.DefaultConfig()
	cfg.BlockSize = blockSize
	o, err := NewOSD(1, device.ChameleonSSD(), ackRPC{}, "fo", cfg, erasure.Vandermonde)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	srv, err := transport.ServeTCP(1, "127.0.0.1:0", o.Handler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	rpc := transport.NewTCPClient(map[wire.NodeID]string{1: srv.Addr()})
	t.Cleanup(rpc.Close)
	transport.SetPoolDebug(true)
	t.Cleanup(func() { transport.SetPoolDebug(false) })
	return o, rpc
}

// awaitTaken waits for the request buffers taken since base and not
// given back to number want. A TCP server ends a reply's loan of a
// block after the reply's flush, so a buffer a write retired under a
// read is given back a moment after the client saw the reply.
func awaitTaken(t *testing.T, base, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for transport.PoolDebugTaken()-base != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d request buffers held, want %d", transport.PoolDebugTaken()-base, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// callOK makes one call and fails the test unless it succeeds.
func callOK(t *testing.T, rpc transport.RPC, msg *wire.Msg) *wire.Resp {
	t.Helper()
	resp, err := rpc.Call(context.Background(), 1, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK() {
		t.Fatal(resp.Err)
	}
	return resp
}

// TestTCPWriteBlockAdoptsRequestBuffer: a KWriteBlock served over TCP
// keeps its request buffer as the in-memory block and gives the
// block's previous buffer back to the frame pool, so later requests on
// the connection reuse pooled buffers instead of allocating a block
// each, and the block reads back exactly after every rewrite — with
// released buffers poisoned by the pool debug mode. Deleting the block
// gives its buffer back too.
func TestTCPWriteBlockAdoptsRequestBuffer(t *testing.T) {
	const blockSize = 1 << 20
	o, rpc := tcpFOOSD(t, blockSize)
	base := transport.PoolDebugTaken()
	b := wire.BlockID{Ino: 1}
	content := make([]byte, blockSize)
	got := make([]byte, blockSize)
	rng := rand.New(rand.NewSource(9))
	write := func() {
		rng.Read(content)
		callOK(t, rpc, &wire.Msg{Kind: wire.KWriteBlock, Block: b, Loc: replyLoc, K: 2, M: 1, Data: content}).Release()
	}
	check := func() {
		read := &wire.Msg{Kind: wire.KRead, Block: b, Size: blockSize, Loc: replyLoc}
		read.SetReplyBuf(got)
		resp := callOK(t, rpc, read)
		if !bytes.Equal(resp.Data, content) {
			t.Fatal("the block does not read back as written")
		}
		resp.Release()
		awaitTaken(t, base, 1) // the block's own
	}
	for i := 0; i < 8; i++ {
		write()
		check()
	}
	// A write that took its buffer and gave none back would allocate a
	// block per write. The bound is three quarters of that, not less:
	// under the race detector sync.Pool drops a quarter of what is put
	// back at random.
	const runs = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		write()
	}
	runtime.ReadMemStats(&after)
	perWrite := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f B allocated per write", perWrite)
	if perWrite >= blockSize*3/4 {
		t.Errorf("%.0f bytes allocated per 1 MiB write: requests do not reuse the buffers blocks give back", perWrite)
	}
	check()
	if snap, _ := o.Store().Snapshot(b); !bytes.Equal(snap, content) {
		t.Fatal("the store holds other bytes than the last write")
	}
	if err := o.Store().Delete(b); err != nil {
		t.Fatal(err)
	}
	awaitTaken(t, base, 0)
}

// TestTCPAdoptingWriteKeepsLentView: a view of a block lent before a
// KWriteBlock adopts a new buffer for it keeps its bytes while later
// requests on the connection churn the frame pool, and the block's old
// buffer goes back to the pool only at the view's release.
func TestTCPAdoptingWriteKeepsLentView(t *testing.T) {
	const blockSize = 1 << 20
	o, rpc := tcpFOOSD(t, blockSize)
	base := transport.PoolDebugTaken()
	a, b := wire.BlockID{Ino: 1}, wire.BlockID{Ino: 2}
	old := bytes.Repeat([]byte{0x11}, blockSize)
	callOK(t, rpc, &wire.Msg{Kind: wire.KWriteBlock, Block: a, Loc: replyLoc, K: 2, M: 1, Data: old}).Release()
	view, release, _, err := o.Store().View(sim.ClassOther, a, 0, blockSize, false)
	if err != nil {
		t.Fatal(err)
	}
	next := bytes.Repeat([]byte{0x22}, blockSize)
	callOK(t, rpc, &wire.Msg{Kind: wire.KWriteBlock, Block: a, Loc: replyLoc, K: 2, M: 1, Data: next}).Release()
	for i := 0; i < 8; i++ {
		fill := bytes.Repeat([]byte{byte(0x30 + i)}, blockSize)
		callOK(t, rpc, &wire.Msg{Kind: wire.KWriteBlock, Block: b, Loc: replyLoc, K: 2, M: 1, Data: fill}).Release()
		callOK(t, rpc, &wire.Msg{Kind: wire.KBlockFetch, Block: a}).Release()
	}
	if !bytes.Equal(view, old) {
		t.Fatal("a lent view changed under an adopting write")
	}
	// a's old and new buffers and b's: the old one waits for the view.
	if taken := transport.PoolDebugTaken() - base; taken != 3 {
		t.Fatalf("%d request buffers held while the view is lent, want 3", taken)
	}
	release()
	if taken := transport.PoolDebugTaken() - base; taken != 2 {
		t.Fatalf("%d request buffers held after the view's release, want 2", taken)
	}
	if snap, _ := o.Store().Snapshot(a); !bytes.Equal(snap, next) {
		t.Fatal("the block lost the adopting write")
	}
}

// TestInprocWriteBlockCopiesCallerBuffer: the in-process transport
// offers no request buffer, so the OSD copies a KWriteBlock's payload
// and a caller that reuses its buffer after Call leaves the block
// unchanged.
func TestInprocWriteBlockCopiesCallerBuffer(t *testing.T) {
	const blockSize = 64 << 10
	cfg := update.DefaultConfig()
	cfg.BlockSize = blockSize
	o, err := NewOSD(1, device.ChameleonSSD(), ackRPC{}, "fo", cfg, erasure.Vandermonde)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	tr := transport.NewInproc(nil)
	tr.Register(1, o.Handler)
	rpc := tr.Caller(wire.ClientIDBase)
	b := wire.BlockID{Ino: 1}
	buf := bytes.Repeat([]byte{0x5a}, blockSize)
	callOK(t, rpc, &wire.Msg{Kind: wire.KWriteBlock, Block: b, Loc: replyLoc, K: 2, M: 1, Data: buf}).Release()
	for i := range buf {
		buf[i] = 0xa5
	}
	resp := callOK(t, rpc, &wire.Msg{Kind: wire.KRead, Block: b, Size: blockSize, Loc: replyLoc})
	defer resp.Release()
	if !bytes.Equal(resp.Data, bytes.Repeat([]byte{0x5a}, blockSize)) {
		t.Fatal("reusing the caller's buffer changed the block")
	}
}
