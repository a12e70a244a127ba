package ecfs

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// TestCoalescedWriteFlushesOncePerDestinationPerWindow is the
// acceptance gate for cross-stripe write coalescing: a multi-stripe
// File.WriteAt must reach each destination OSD in at most one
// writer flush per coalescing window, where the pre-coalescing client
// paid one flush per destination per *stripe*. Measured over real TCP
// loopback with the transport's per-destination flush counters.
func TestCoalescedWriteFlushesOncePerDestinationPerWindow(t *testing.T) {
	const (
		k, m      = 2, 1
		nOSDs     = 3 // k+m: every OSD holds a shard of every stripe
		blockSize = 4 << 10
	)
	h := newTCPHarness(t, k, m, nOSDs, blockSize)
	rpc := h.newRPC()
	cli := NewClient(wire.ClientIDBase, rpc, h.code, blockSize)
	ctx := context.Background()

	f, err := cli.Open(ctx, "coalesce-flush-count")
	if err != nil {
		t.Fatal(err)
	}
	span := k * blockSize
	stripes := 2 * writeCoalesceStripes // two full coalescing windows
	data := make([]byte, stripes*span)
	rand.New(rand.NewSource(8)).Read(data)

	// Warm-up pass: dials every connection and fills the placement
	// cache, so the measured pass counts data-plane flushes only.
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	flushes := func() map[wire.NodeID]int64 {
		out := make(map[wire.NodeID]int64)
		for id := range h.osds {
			out[id] = rpc.DestFlushes(id)
		}
		return out
	}

	before := flushes()
	if n, err := f.WriteAt(data, 0); err != nil || n != len(data) {
		t.Fatalf("coalesced write: n=%d bytes err=%v, want %d", n, err, len(data))
	}
	windows := (stripes + writeCoalesceStripes - 1) / writeCoalesceStripes
	for id, b := range before {
		delta := rpc.DestFlushes(id) - b
		if delta == 0 {
			t.Errorf("OSD %d saw no flushes; every OSD holds a shard of every stripe", id)
		}
		if delta > int64(windows) {
			t.Errorf("OSD %d: %d flushes for %d coalescing windows, want <= 1 per window", id, delta, windows)
		}
	}

	// Contrast: one WriteAt per stripe pays at least one flush per
	// stripe per destination — what coalescing buys is stripes/window
	// fewer.
	before = flushes()
	for s := 0; s < stripes; s++ {
		if _, err := f.WriteAt(data[s*span:(s+1)*span], int64(s*span)); err != nil {
			t.Fatal(err)
		}
	}
	for id, b := range before {
		if delta := rpc.DestFlushes(id) - b; delta < int64(stripes) {
			t.Errorf("OSD %d: per-stripe path took %d flushes for %d stripes, expected >= one per stripe", id, delta, stripes)
		}
	}

	out, _, err := f.ReadRange(ctx, 0, len(data))
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("read-back mismatch after flush-count passes: err=%v", err)
	}
}

// TestPooledRespBalanceAcrossErrorPaths arms the transport's pooled
// buffer misuse detector and drives the client through every hot-path
// shape — coalesced writes, partial-block updates, healthy reads, a
// node failure with degraded writes and reconstructing reads — then
// requires every pooled response buffer to be back in the pool.
// A leak here is invisible in production (just a pool miss); this test
// plus the -race run is where the ownership contract is enforced.
func TestPooledRespBalanceAcrossErrorPaths(t *testing.T) {
	const (
		k, m      = 2, 1
		nOSDs     = 4
		blockSize = 4 << 10
	)
	h := newTCPHarness(t, k, m, nOSDs, blockSize)
	rpc := h.newRPC()
	cli := NewClient(wire.ClientIDBase, rpc, h.code, blockSize)
	ctx := context.Background()

	transport.SetPoolDebug(true)
	defer transport.SetPoolDebug(false)
	base := transport.PoolDebugOutstanding()

	f, err := cli.Open(ctx, "pool-balance")
	if err != nil {
		t.Fatal(err)
	}
	span := k * blockSize
	stripes := writeCoalesceStripes + 3 // full window plus a partial one
	data := make([]byte, stripes*span)
	rand.New(rand.NewSource(9)).Read(data)

	// Healthy paths: coalesced write, overwrite (delta updates through
	// the OSD-side update fan-out), partial-block update, full read.
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	patch := []byte("pooled-buffer ownership patch")
	copy(data[137:], patch)
	if _, err := f.UpdateAt(ctx, 137, patch, 0); err != nil {
		t.Fatal(err)
	}
	if out, _, err := f.ReadRange(ctx, 0, len(data)); err != nil || !bytes.Equal(out, data) {
		t.Fatalf("healthy read-back: err=%v", err)
	}
	// A read into the caller's buffer: every reply lands in p itself.
	p := make([]byte, len(data)-300)
	if _, err := f.ReadAt(p, 150); err != nil || !bytes.Equal(p, data[150:len(data)-150]) {
		t.Fatalf("healthy ReadAt: err=%v", err)
	}

	// Failure paths: kill an OSD mid-placement. Writes that land on it
	// exhaust the re-resolve/retry loop (release-on-error in
	// sendWithReresolve and the batched first attempt); reads
	// reconstruct via the degraded path, which collects k responses and
	// releases them all.
	h.fail(1)
	if n, err := f.WriteAt(data, 0); err == nil {
		t.Logf("write after OSD failure unexpectedly clean (n=%d); error paths not exercised", n)
	}
	if out, _, err := f.ReadRange(ctx, 0, len(data)); err != nil || !bytes.Equal(out, data) {
		t.Fatalf("degraded read-back: err=%v", err)
	}
	clear(p)
	if _, err := f.ReadAt(p, 150); err != nil || !bytes.Equal(p, data[150:len(data)-150]) {
		t.Fatalf("degraded ReadAt: err=%v", err)
	}

	// Every buffer attached while armed must be released once handlers
	// and fallback goroutines settle.
	deadline := time.Now().Add(10 * time.Second)
	for transport.PoolDebugOutstanding() != base {
		if time.Now().After(deadline) {
			t.Fatalf("pooled response buffers leaked: outstanding=%d want %d",
				transport.PoolDebugOutstanding(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// readCountingRPC forwards to a TCP client the way the benchmark's
// tracing wrapper does — it implements only Call and CallBatch and
// passes the *wire.Msg and *transport.BatchCall pointers through — and
// counts the KRead traffic, checking that every reply that fit its
// named buffer arrived in it.
type readCountingRPC struct {
	t     *testing.T
	inner *transport.TCPClient

	mu                              sync.Mutex
	readCalls, readBatches, batched int
}

func (r *readCountingRPC) Call(ctx context.Context, to wire.NodeID, msg *wire.Msg) (*wire.Resp, error) {
	resp, err := r.inner.Call(ctx, to, msg)
	if msg.Kind == wire.KRead {
		r.mu.Lock()
		r.readCalls++
		r.mu.Unlock()
		r.checkLanded(msg, resp, err)
	}
	return resp, err
}

func (r *readCountingRPC) CallBatch(ctx context.Context, calls []*transport.BatchCall) {
	r.inner.CallBatch(ctx, calls)
	reads := 0
	for _, bc := range calls {
		if bc.Msg.Kind == wire.KRead {
			reads++
			r.checkLanded(bc.Msg, bc.Resp, bc.Err)
		}
	}
	if reads > 0 {
		r.mu.Lock()
		r.readBatches++
		r.batched += reads
		r.mu.Unlock()
	}
}

func (r *readCountingRPC) checkLanded(msg *wire.Msg, resp *wire.Resp, err error) {
	dst := msg.ReplyBuf()
	if err != nil || !resp.OK() || len(resp.Data) == 0 || len(dst) == 0 {
		return
	}
	if &resp.Data[0] != &dst[0] {
		r.t.Errorf("KRead reply for %v did not land in its reply buffer", msg.Block)
	}
}

// refRead is the read the client made before replies went into the
// caller's memory: one plain KRead Call per part, each reply copied out
// of its own buffer.
func refRead(t *testing.T, cli *Client, rpc transport.RPC, ino uint64, off int64, size int) []byte {
	t.Helper()
	ctx := context.Background()
	out := make([]byte, size)
	parts, err := cli.split(ctx, ino, off, out, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		resp, err := rpc.Call(ctx, p.loc.Nodes[p.block.Idx], &wire.Msg{
			Kind: wire.KRead, Block: p.block, Off: p.off, Size: uint32(len(p.buf)), Loc: p.loc,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Error(); err != nil {
			t.Fatal(err)
		}
		copy(p.buf, resp.Data)
		resp.Release()
	}
	return out
}

// TestReadAtSpanningStripesIsOneBatch: a File.ReadAt spanning blocks and
// stripes sends all its parts as one CallBatch (no per-part Call), every
// reply lands in the caller's buffer through a Call/CallBatch-only
// wrapper, and the bytes equal what the per-part reference read returns
// — pending update-log content included.
func TestReadAtSpanningStripesIsOneBatch(t *testing.T) {
	const (
		k, m      = 3, 2
		nOSDs     = 5
		blockSize = 4 << 10
	)
	h := newTCPHarness(t, k, m, nOSDs, blockSize)
	tcp := h.newRPC()
	rpc := &readCountingRPC{t: t, inner: tcp}
	cli := NewClient(wire.ClientIDBase, rpc, h.code, blockSize)
	ctx := context.Background()
	f, err := cli.Open(ctx, "span")
	if err != nil {
		t.Fatal(err)
	}
	span := k * blockSize
	data := make([]byte, 3*span)
	rand.New(rand.NewSource(18)).Read(data)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// Updates still in the DataLog: the holder overlays them on reads.
	patch := bytes.Repeat([]byte{0xEE}, 3000)
	for _, off := range []int{blockSize - 1000, span + 2*blockSize - 10} {
		if _, err := f.UpdateAt(ctx, int64(off), patch, 0); err != nil {
			t.Fatal(err)
		}
		copy(data[off:], patch)
	}

	off, size := blockSize/2, 2*span+blockSize // from block 0 of stripe 0 into stripe 2
	want := refRead(t, cli, tcp, f.Ino(), int64(off), size)
	if !bytes.Equal(want, data[off:off+size]) {
		t.Fatal("reference read disagrees with the written bytes")
	}
	parts, err := cli.split(ctx, f.Ino(), int64(off), make([]byte, size), false)
	if err != nil {
		t.Fatal(err)
	}
	rpc.mu.Lock()
	rpc.readCalls, rpc.readBatches, rpc.batched = 0, 0, 0
	rpc.mu.Unlock()
	p := bytes.Repeat([]byte{0x5C}, size)
	if n, err := f.ReadAt(p, int64(off)); err != nil || n != size {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(p, want) {
		t.Fatal("ReadAt differs from the per-part reference read")
	}
	rpc.mu.Lock()
	defer rpc.mu.Unlock()
	if rpc.readBatches != 1 || rpc.batched != len(parts) || rpc.readCalls != 0 {
		t.Fatalf("%d-part read went out as %d batches of %d reads plus %d single calls, want one batch of %d",
			len(parts), rpc.readBatches, rpc.batched, rpc.readCalls, len(parts))
	}
}

// TestStage2RepliesReleased: TSUE's stage-2 traffic over TCP — DataLog
// recycle forwards, DeltaLog merges to the ParityLogs, copy trims and
// the drain phases — returns every pooled reply buffer it takes.
func TestStage2RepliesReleased(t *testing.T) {
	const (
		k, m      = 4, 2
		nOSDs     = 6
		blockSize = 4 << 10
	)
	h := newTCPHarness(t, k, m, nOSDs, blockSize)
	rpc := h.newRPC()
	cli := NewClient(wire.ClientIDBase, rpc, h.code, blockSize)
	ctx := context.Background()
	f, err := cli.Open(ctx, "stage2")
	if err != nil {
		t.Fatal(err)
	}
	span := k * blockSize
	data := make([]byte, 4*span)
	rng := rand.New(rand.NewSource(2))
	rng.Read(data)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	transport.SetPoolDebug(true)
	defer transport.SetPoolDebug(false)
	base := transport.PoolDebugOutstanding()
	for i := 0; i < 300; i++ {
		n := 512 * (1 + rng.Intn(4))
		off := rng.Intn(len(data) - n)
		patch := make([]byte, n)
		rng.Read(patch)
		if _, err := f.UpdateAt(ctx, int64(off), patch, time.Duration(i)); err != nil {
			t.Fatal(err)
		}
		copy(data[off:], patch)
	}
	for _, o := range h.osds {
		o.Strategy().Settle()
	}
	for phase := 1; phase <= update.DrainPhases; phase++ {
		for id := range h.osds {
			resp, err := rpc.Call(ctx, id, &wire.Msg{Kind: wire.KDrainLogs, Flag: uint8(phase)})
			if err != nil {
				t.Fatal(err)
			}
			err = resp.Error()
			resp.Release()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := transport.PoolDebugOutstanding(); got != base {
		t.Fatalf("pooled reply buffers outstanding after stage 2 and the drain: %d, want %d", got, base)
	}
	if out, _, err := f.ReadRange(ctx, 0, len(data)); err != nil || !bytes.Equal(out, data) {
		t.Fatalf("read-back after the drain: err=%v", err)
	}
}
