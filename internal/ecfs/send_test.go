package ecfs

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/transport"
	"repro/internal/wire"
)

// countingRPC wraps an RPC and counts what a client sends through it:
// every message by kind, target and block, and per kind how many plain
// Calls and how many CallBatch calls carried it. CallBatch hands the
// whole batch to the wrapped RPC, so a batch stays one batch.
type countingRPC struct {
	inner transport.RPC

	mu      sync.Mutex
	sent    map[sendKey]int
	calls   map[wire.Kind]int
	batches map[wire.Kind]int
}

type sendKey struct {
	kind  wire.Kind
	to    wire.NodeID
	block wire.BlockID
}

func newCountingRPC(inner transport.RPC) *countingRPC {
	r := &countingRPC{inner: inner}
	r.reset()
	return r
}

func (r *countingRPC) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sent = make(map[sendKey]int)
	r.calls = make(map[wire.Kind]int)
	r.batches = make(map[wire.Kind]int)
}

func (r *countingRPC) Call(ctx context.Context, to wire.NodeID, msg *wire.Msg) (*wire.Resp, error) {
	r.mu.Lock()
	r.sent[sendKey{msg.Kind, to, msg.Block}]++
	r.calls[msg.Kind]++
	r.mu.Unlock()
	return r.inner.Call(ctx, to, msg)
}

func (r *countingRPC) CallBatch(ctx context.Context, calls []*transport.BatchCall) {
	r.mu.Lock()
	kinds := make(map[wire.Kind]bool)
	for _, bc := range calls {
		r.sent[sendKey{bc.Msg.Kind, bc.To, bc.Msg.Block}]++
		kinds[bc.Msg.Kind] = true
	}
	for k := range kinds {
		r.batches[k]++
	}
	r.mu.Unlock()
	r.inner.CallBatch(ctx, calls)
}

// sentTo returns how many messages of kind went to node to for block b.
func (r *countingRPC) sentTo(kind wire.Kind, to wire.NodeID, b wire.BlockID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sent[sendKey{kind, to, b}]
}

// sentFor returns how many messages of kind went anywhere for block b.
func (r *countingRPC) sentFor(kind wire.Kind, b wire.BlockID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for k, c := range r.sent {
		if k.kind == kind && k.block == b {
			n += c
		}
	}
	return n
}

// countingClient returns a client of c whose traffic goes through a
// countingRPC.
func countingClient(c *Cluster, id wire.NodeID) (*Client, *countingRPC) {
	rpc := newCountingRPC(c.Tr.Caller(id))
	return NewClient(id, rpc, c.code, c.Opts.BlockSize), rpc
}

// TestStaleWriteWindowResendsEachShardOnce: every stripe of a write
// window is rebound after the client cached its placement, and every
// holder, old and new, has learned the new epoch. Each shard is then
// delivered twice — rejected as stale under the cached placement, and
// resent once under the refreshed one — never resent under the
// placement it was just rejected under.
func TestStaleWriteWindowResendsEachShardOnce(t *testing.T) {
	ctx := context.Background()
	c := MustNewCluster(testOptions("fo"))
	defer c.Close()
	cli, rpc := countingClient(c, wire.ClientIDBase+700)
	f := openFile(t, cli, "stale-window")
	const stripes = 2
	span := cli.StripeSpan()
	data := make([]byte, stripes*span)
	rng := rand.New(rand.NewSource(61))
	rng.Read(data)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	k, m := c.Opts.K, c.Opts.M
	olds := make([]wire.StripeLoc, stripes)
	news := make([]wire.StripeLoc, stripes)
	for s := range stripes {
		old, err := c.MDS.Lookup(f.Ino(), uint32(s))
		if err != nil {
			t.Fatal(err)
		}
		to, err := c.MDS.PickRebindTarget(f.Ino(), uint32(s), old)
		if err != nil {
			t.Fatal(err)
		}
		nl, err := c.MDS.Rebind(f.Ino(), uint32(s), old.Nodes[0], to)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range append(slices.Clone(old.Nodes), to) {
			resp := c.OSD(id).Handler(ctx, &wire.Msg{Kind: wire.KEpochUpdate, Block: wire.BlockID{Ino: f.Ino(), Stripe: uint32(s)}, Loc: nl, K: uint8(k), M: uint8(m)})
			if !resp.OK() {
				t.Fatalf("epoch update on node %d: %s", id, resp.Err)
			}
			resp.Release()
		}
		olds[s], news[s] = old, nl
	}

	rpc.reset()
	rng.Read(data)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	for s := range stripes {
		for i := 0; i < k+m; i++ {
			b := wire.BlockID{Ino: f.Ino(), Stripe: uint32(s), Idx: uint8(i)}
			if n := rpc.sentFor(wire.KWriteBlock, b); n != 2 {
				t.Errorf("shard %v delivered %d times, want 2 (one stale rejection, one resend)", b, n)
			}
			// The stale rejection came from the old holder, the resend
			// went to the new one; where the block did not move, both
			// are the same node.
			want := map[wire.NodeID]int{olds[s].Nodes[i]: 1}
			want[news[s].Nodes[i]]++
			for node, w := range want {
				if n := rpc.sentTo(wire.KWriteBlock, node, b); n != w {
					t.Errorf("shard %v went %d times to node %d, want %d", b, n, node, w)
				}
			}
		}
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-back after the resent window differs from what was written")
	}
}

// TestSpanningReadAsksFailedHolderOnce: a read spanning two blocks, the
// holder of one of which has failed, sends that holder one KRead — the
// batched first attempt — and then, the MDS confirming the placement,
// decodes the part from the survivors without asking again.
func TestSpanningReadAsksFailedHolderOnce(t *testing.T) {
	c := MustNewCluster(testOptions("fo"))
	defer c.Close()
	cli, rpc := countingClient(c, wire.ClientIDBase+701)
	f, mirror := writeTestFile(t, c, cli, cli.StripeSpan(), 62)
	loc, err := c.MDS.Lookup(f.Ino(), 0)
	if err != nil {
		t.Fatal(err)
	}
	dead := loc.Nodes[1]
	c.FailOSD(dead)

	rpc.reset()
	bs := c.Opts.BlockSize
	off := int64(bs - 100)
	p := make([]byte, 200)
	if _, err := f.ReadAt(p, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, mirror[off:off+int64(len(p))]) {
		t.Fatal("degraded spanning read returned the wrong bytes")
	}
	b := wire.BlockID{Ino: f.Ino(), Stripe: 0, Idx: 1}
	if n := rpc.sentTo(wire.KRead, dead, b); n != 1 {
		t.Errorf("the failed holder was sent %d KReads for %v, want 1", n, b)
	}
	if n := cli.Stats().DegradedReads; n != 1 {
		t.Errorf("%d degraded reads, want 1", n)
	}
}

// TestMultiPartUpdateIsOneBatch: an update spanning two blocks leaves
// as one CallBatch of two KUpdates, with no plain Call.
func TestMultiPartUpdateIsOneBatch(t *testing.T) {
	ctx := context.Background()
	c := MustNewCluster(testOptions("fo"))
	defer c.Close()
	cli, rpc := countingClient(c, wire.ClientIDBase+702)
	f, mirror := writeTestFile(t, c, cli, cli.StripeSpan(), 63)

	rpc.reset()
	off := int64(c.Opts.BlockSize - 300)
	patch := bytes.Repeat([]byte{0x3C}, 600)
	if _, err := f.UpdateAt(ctx, off, patch, 0); err != nil {
		t.Fatal(err)
	}
	copy(mirror[off:], patch)
	rpc.mu.Lock()
	batches, calls := rpc.batches[wire.KUpdate], rpc.calls[wire.KUpdate]
	rpc.mu.Unlock()
	if batches != 1 || calls != 0 {
		t.Errorf("two-block update left as %d batches and %d plain calls, want one batch", batches, calls)
	}
	for i := range 2 {
		b := wire.BlockID{Ino: f.Ino(), Stripe: 0, Idx: uint8(i)}
		if n := rpc.sentFor(wire.KUpdate, b); n != 1 {
			t.Errorf("block %v got %d KUpdates, want 1", b, n)
		}
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyStripes(f, mirror); err != nil {
		t.Fatal(err)
	}
}

// TestWarmSinglePartAllocs gates the allocations of a warm single-part
// UpdateAt and ReadAt in process, client and servers together, on an
// FO cluster — which runs no background recycler to allocate beside the
// call. A lone part is one plain Call with no allocation beyond its
// message; the bounds are what the two calls cost on this cluster when
// each kind still had a send path of its own.
func TestWarmSinglePartAllocs(t *testing.T) {
	ctx := context.Background()
	c := MustNewCluster(testOptions("fo"))
	defer c.Close()
	cli := c.NewClient()
	f, _ := writeTestFile(t, c, cli, cli.StripeSpan(), 64)
	patch := bytes.Repeat([]byte{0x5A}, 512)
	p := make([]byte, len(patch))
	for _, tc := range []struct {
		name string
		max  float64
		call func()
	}{
		{"UpdateAt", 18, func() {
			if _, err := f.UpdateAt(ctx, 100, patch, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"ReadAt", 7, func() {
			if _, err := f.ReadAt(p, 100); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		for range 8 {
			tc.call()
		}
		allocs := testing.AllocsPerRun(200, tc.call)
		t.Logf("%s: %.2f allocs/call", tc.name, allocs)
		if allocs > tc.max {
			t.Errorf("warm single-part %s: %.2f allocs/call, want <= %.0f", tc.name, allocs, tc.max)
		}
	}
	if !bytes.Equal(p, patch) {
		t.Fatal("ReadAt did not return the update")
	}
}
