package ecfs

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/erasure"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// TestTCPClusterEndToEnd deploys a real ECFS cluster over TCP loopback —
// the same wiring cmd/ecfsd uses — and runs writes, updates, flush and
// reads through actual sockets with binary-codec frames.
func TestTCPClusterEndToEnd(t *testing.T) {
	ctx := context.Background()
	const (
		k, m      = 2, 1
		nOSDs     = 4
		blockSize = 8 << 10
	)
	ids := make([]wire.NodeID, nOSDs)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	mds, err := NewMDS(ids, k, m)
	if err != nil {
		t.Fatal(err)
	}
	mdsSrv, err := transport.ServeTCP(wire.MDSNode, "127.0.0.1:0", mds.Handler)
	if err != nil {
		t.Fatal(err)
	}
	defer mdsSrv.Close()

	addrs := map[wire.NodeID]string{wire.MDSNode: mdsSrv.Addr()}
	cfg := update.DefaultConfig()
	cfg.BlockSize = blockSize
	cfg.UnitSize = 4 << 10
	cfg.MaxUnits = 4
	cfg.Pools = 2
	cfg.Workers = 2

	var osds []*OSD
	var srvs []*transport.TCPServer
	// Each OSD gets its own TCP client pool; addresses are completed
	// after every server is bound (two passes, like a static config).
	clients := make([]*transport.TCPClient, nOSDs)
	for i, id := range ids {
		clients[i] = transport.NewTCPClient(nil)
		osd, err := NewOSD(id, device.ChameleonSSD(), clients[i], "tsue", cfg, erasure.Vandermonde)
		if err != nil {
			t.Fatal(err)
		}
		defer osd.Close()
		srv, err := transport.ServeTCP(id, "127.0.0.1:0", osd.Handler)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		osds = append(osds, osd)
		srvs = append(srvs, srv)
		addrs[id] = srv.Addr()
	}
	for i := range clients {
		for id, addr := range addrs {
			clients[i].SetAddr(id, addr)
		}
	}
	_ = srvs

	cliRPC := transport.NewTCPClient(addrs)
	defer cliRPC.Close()
	code := erasure.MustNew(k, m, erasure.Vandermonde)
	cli := NewClient(wire.ClientIDBase, cliRPC, code, blockSize)

	f := openFile(t, cli, "tcp-vol")
	ino := f.Ino()
	mirror := make([]byte, 2*cli.StripeSpan())
	rand.New(rand.NewSource(5)).Read(mirror)
	if _, err := f.WriteAt(mirror, 0); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 60; i++ {
		off := int64(rng.Intn(len(mirror) - 128))
		data := make([]byte, 1+rng.Intn(128))
		rng.Read(data)
		if _, err := f.UpdateAt(ctx, off, data, 0); err != nil {
			t.Fatalf("update over TCP: %v", err)
		}
		copy(mirror[off:], data)
	}

	got, _, err := f.ReadRange(ctx, 0, len(mirror))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("TCP read-back mismatch before flush")
	}

	// Drain over TCP, phase by phase, then verify parity locally.
	for phase := 1; phase <= update.DrainPhases; phase++ {
		for _, id := range ids {
			resp, err := cliRPC.Call(context.Background(), id, &wire.Msg{Kind: wire.KDrainLogs, Flag: uint8(phase)})
			if err != nil {
				t.Fatal(err)
			}
			if e := resp.Error(); e != nil {
				t.Fatal(e)
			}
		}
	}
	for s := 0; s < 2; s++ {
		loc, err := mds.Lookup(ino, uint32(s))
		if err != nil {
			t.Fatal(err)
		}
		data := make([][]byte, k)
		parity := make([][]byte, m)
		for i := 0; i < k+m; i++ {
			b := wire.BlockID{Ino: ino, Stripe: uint32(s), Idx: uint8(i)}
			var holder *OSD
			for _, o := range osds {
				if o.ID() == loc.Nodes[i] {
					holder = o
				}
			}
			snap, ok := holder.Store().Snapshot(b)
			if !ok {
				t.Fatalf("block %v missing", b)
			}
			if i < k {
				data[i] = snap
			} else {
				parity[i-k] = snap
			}
		}
		ok, err := code.Verify(data, parity)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("stripe %d parity inconsistent after TCP run", s)
		}
	}

	// Heartbeats flow over TCP too.
	if err := osds[0].Heartbeat(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := mds.LastHeartbeat(ids[0]); !ok {
		t.Fatal("heartbeat not recorded")
	}
}
