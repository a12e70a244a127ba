package ecfs

import (
	"context"
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/erasure"
	"repro/internal/update"
	"repro/internal/wire"
)

// TestOSDPlacementTable: the OSD's one placement table resolves every
// block of a learned stripe, misses unknown stripes, ignores messages
// without a placement and placements older than the one it holds, and
// keeps the known geometry when a message carries none. A stripe
// journaled before any message carried its geometry keeps its nodes and
// epoch across a reopen and still rejects a stale client, yet its
// placement is unknown until a message at that epoch carries the
// geometry.
func TestOSDPlacementTable(t *testing.T) {
	cfg := update.DefaultConfig()
	cfg.BlockSize = 4 << 10
	dir := t.TempDir()
	open := func() *OSD {
		t.Helper()
		o, err := NewOSDAt(1, device.ChameleonSSD(), nil, "tsue", cfg, erasure.Vandermonde, dir)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	o := open()
	learn := func(msg *wire.Msg) {
		t.Helper()
		if _, err := o.learn(msg); err != nil {
			t.Fatal(err)
		}
	}
	b := wire.BlockID{Ino: 1, Stripe: 2}
	learn(&wire.Msg{Block: b, K: 2, M: 1, Loc: wire.StripeLoc{Nodes: []wire.NodeID{1, 2, 3}, Epoch: 1}})
	p, ok := o.Placement(b.WithIdx(1)) // same stripe, other block
	if !ok || p.K != 2 || p.M != 1 || p.Loc.Nodes[2] != 3 {
		t.Fatalf("lookup failed: %+v %v", p, ok)
	}
	if _, ok := o.Placement(wire.BlockID{Ino: 9, Stripe: 9}); ok {
		t.Fatal("unknown stripe must miss")
	}
	learn(&wire.Msg{Block: wire.BlockID{Ino: 5}})
	if _, ok := o.Placement(wire.BlockID{Ino: 5}); ok {
		t.Fatal("empty placement must not be learned")
	}
	learn(&wire.Msg{Block: b, K: 2, M: 1, Loc: wire.StripeLoc{Nodes: []wire.NodeID{1, 2, 9}, Epoch: 0}})
	if p, _ := o.Placement(b); p.Loc.Epoch != 1 || p.Loc.Nodes[2] != 3 {
		t.Fatalf("older placement adopted: %+v", p)
	}
	learn(&wire.Msg{Block: b, Loc: wire.StripeLoc{Nodes: []wire.NodeID{1, 2, 4}, Epoch: 2}})
	if p, ok := o.Placement(b); !ok || p.K != 2 || p.M != 1 || p.Loc.Epoch != 2 || p.Loc.Nodes[2] != 4 {
		t.Fatalf("geometry-free refresh: %+v %v", p, ok)
	}

	// A full-block write carries no geometry: its nodes and epoch are
	// journaled with K zero.
	ctx := context.Background()
	eb := wire.BlockID{Ino: 7}
	nodes := []wire.NodeID{1, 2, 3}
	if resp := o.Handler(ctx, &wire.Msg{Kind: wire.KWriteBlock, Block: eb, Data: make([]byte, cfg.BlockSize),
		Loc: wire.StripeLoc{Nodes: nodes, Epoch: 3}}); !resp.OK() {
		t.Fatalf("write: %s", resp.Err)
	}
	o.Close()
	o = open()
	defer o.Close()
	if p, ok := o.Placement(b); !ok || p.Loc.Epoch != 2 || p.Loc.Nodes[2] != 4 {
		t.Fatalf("journaled placement after reopen: %+v %v", p, ok)
	}
	if p, ok := o.Placement(eb); ok || p.K != 0 || p.Loc.Epoch != 3 || !slices.Equal(p.Loc.Nodes, nodes) {
		t.Fatalf("geometry-free record after reopen: %+v %v, want nodes %v at epoch 3, unknown", p, ok, nodes)
	}
	read := func(epoch uint64) *wire.Resp {
		return o.Handler(ctx, &wire.Msg{Kind: wire.KRead, Block: eb, Size: 16, Loc: wire.StripeLoc{Nodes: nodes, Epoch: epoch}})
	}
	if resp := read(2); !resp.IsStale() {
		t.Fatalf("read at epoch 2 after reopen: %+v, want a stale reply", resp)
	}
	if resp := read(3); !resp.OK() {
		t.Fatalf("read at epoch 3 after reopen: %s", resp.Err)
	}
	learn(&wire.Msg{Block: eb, K: 2, M: 1, Loc: wire.StripeLoc{Nodes: nodes, Epoch: 3}})
	if p, ok := o.Placement(eb); !ok || p.K != 2 || p.Loc.Epoch != 3 {
		t.Fatalf("geometry at the same epoch not adopted: %+v %v", p, ok)
	}
}
