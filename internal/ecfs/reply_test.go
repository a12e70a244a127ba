package ecfs

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/device"
	"repro/internal/erasure"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// replyOSD returns an in-memory TSUE OSD holding one written block of
// blockSize random bytes, and the read requests the OSD serves from its
// reply pool: a KRead of the whole block, a plain KBlockFetch, and a
// read-through one.
func replyOSD(t *testing.T, blockSize int) (*OSD, []byte, []*wire.Msg) {
	t.Helper()
	cfg := update.DefaultConfig()
	cfg.BlockSize = blockSize
	o, err := NewOSD(1, device.ChameleonSSD(), nil, "tsue", cfg, erasure.Vandermonde)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	b := wire.BlockID{Ino: 1}
	loc := wire.StripeLoc{Nodes: []wire.NodeID{1, 2, 3}, Epoch: 1}
	content := make([]byte, blockSize)
	rand.New(rand.NewSource(5)).Read(content)
	if resp := o.Handler(context.Background(), &wire.Msg{Kind: wire.KWriteBlock, Block: b, Loc: loc, K: 2, M: 1, Data: content}); !resp.OK() {
		t.Fatal(resp.Err)
	}
	return o, content, []*wire.Msg{
		{Kind: wire.KRead, Block: b, Size: uint32(blockSize), Loc: loc},
		{Kind: wire.KBlockFetch, Block: b},
		{Kind: wire.KBlockFetch, Block: b, Flag: wire.FetchReadThrough},
	}
}

// TestOSDReplyPoolPoisonsAndPanics: under the transport's pool debug
// mode, releasing a read or block-fetch reply poisons the buffer the
// OSD served it from, and releasing it again panics.
func TestOSDReplyPoolPoisonsAndPanics(t *testing.T) {
	o, content, reads := replyOSD(t, 64<<10)
	transport.SetPoolDebug(true)
	defer transport.SetPoolDebug(false)
	base := transport.PoolDebugOutstanding()
	for _, msg := range reads {
		resp := o.Handler(context.Background(), msg)
		if !resp.OK() || !bytes.Equal(resp.Data, content) {
			t.Fatalf("%v flag %d: err %q or wrong bytes", msg.Kind, msg.Flag, resp.Err)
		}
		data := resp.Data
		resp.Release()
		if !bytes.Equal(data, bytes.Repeat([]byte{0xDB}, len(data))) {
			t.Fatalf("%v flag %d: released reply buffer not poisoned", msg.Kind, msg.Flag)
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
		t.Fatalf("reply buffers outstanding: %d, want %d", got, base)
	}
}

// TestWarmReadAllocatesNoPayload gates the OSD's read path: once the
// reply pool is warm, a 1 MiB KRead or KBlockFetch whose reply is
// released allocates no payload-sized buffer. The bound is three
// quarters of the payload, not less: under the race detector sync.Pool
// drops a quarter of what is put back at random, so a quarter of the
// calls miss the pool there.
func TestWarmReadAllocatesNoPayload(t *testing.T) {
	const blockSize = 1 << 20
	o, content, reads := replyOSD(t, blockSize)
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
	o, _, reads := replyOSD(t, blockSize)
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
