package ecfs

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// TestDialSelfDiscovery is the acceptance test for the dialable
// transport: a client built from nothing but the MDS address completes
// create/write/update/read against a real TCP cluster, survives an OSD
// restart on a fresh port, and keeps working through a fresh-id
// recovery — with zero SetAddr calls anywhere on the client. Address
// re-discovery runs entirely over wire.KResolveAddr, fed by the listen
// addresses OSDs report in their heartbeats.
func TestDialSelfDiscovery(t *testing.T) {
	const (
		k, m      = 2, 1
		nOSDs     = 4
		blockSize = 8 << 10
	)
	ctx := context.Background()
	h := newTCPHarness(t, k, m, nOSDs, blockSize)

	// Dial knows only the MDS address; geometry, block size and the node
	// address map are discovered.
	rc, err := Dial(ctx, h.addrs[wire.MDSNode])
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if gk, gm := rc.Geometry(); gk != k || gm != m {
		t.Fatalf("discovered geometry RS(%d,%d), want RS(%d,%d)", gk, gm, k, m)
	}
	if span := rc.StripeSpan(); span != k*blockSize {
		t.Fatalf("discovered stripe span %d, want %d", span, k*blockSize)
	}

	// Create / write / update / read through the handle surface.
	f, err := rc.Open(ctx, "dial-vol")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mirror := make([]byte, 2*rc.StripeSpan())
	rand.New(rand.NewSource(21)).Read(mirror)
	if _, err := f.WriteAt(mirror, 0); err != nil {
		t.Fatal(err)
	}
	payload := []byte("dialed two-stage update")
	if _, err := f.UpdateAt(ctx, 300, payload, 0); err != nil {
		t.Fatal(err)
	}
	copy(mirror[300:], payload)
	got := make([]byte, len(mirror))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("dialed read-back mismatch")
	}
	if n, err := f.Stripes(ctx); err != nil || n != 2 {
		t.Fatalf("stripes = %d, %v; want 2", n, err)
	}

	// Restart the holder of stripe 0's first data block on a FRESH port.
	// The dialed client's pool still caches the old (now dead) address;
	// its next read must re-resolve through the MDS — no SetAddr.
	loc0, err := h.mds.Lookup(f.Ino(), 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := loc0.Nodes[0]
	osd := h.osds[moved]
	h.srvs[moved].Close()
	srv2, err := transport.ServeTCP(moved, "127.0.0.1:0", osd.Handler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })
	if srv2.Addr() == h.addrs[moved] {
		t.Fatalf("restart reused the old port %s; test needs a fresh one", srv2.Addr())
	}
	h.srvs[moved] = srv2
	h.addrs[moved] = srv2.Addr()
	osd.SetListenAddr(srv2.Addr())
	if err := osd.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}

	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("read after OSD restart on fresh port: %v", err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("read-back mismatch after restart")
	}
	if st := rc.Stats(); st.DegradedReads != 0 {
		t.Fatalf("restart read degraded %d times; want address re-discovery on the normal path", st.DegradedReads)
	}

	// Fresh-id recovery over TCP: a victim dies for good, a replacement
	// joins under a NEW node id (announcing itself via heartbeat), and
	// the repair engine rebinds the victim's stripes onto it under
	// bumped epochs. The dialed client has never heard of the new id;
	// its pool must discover the address via wire.KResolveAddr.
	victim := loc0.Nodes[1]
	h.fail(victim)
	down := map[wire.NodeID]bool{victim: true}
	freshID := wire.NodeID(nOSDs + 9)
	repl := h.addOSD(freshID)
	h.mds.AddNode(freshID)

	caller := h.newRPC()
	res, err := RepairNode(ctx, h.mds, caller, h.code, RepairOptions{
		K: k, M: m, Workers: 2,
		Down:  down,
		Flush: h.flushOver(caller, down),
	}, victim, repl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebound == 0 {
		t.Fatalf("fresh-id recovery rebound nothing: %+v", res)
	}

	// More traffic through the dialed client: updates and reads land on
	// the replacement (stale epochs re-resolve placement; the unknown
	// node id re-resolves its address). Still zero SetAddr calls.
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 30; i++ {
		off := int64(rng.Intn(len(mirror) - 64))
		data := make([]byte, 1+rng.Intn(64))
		rng.Read(data)
		if _, err := f.UpdateAt(ctx, off, data, 0); err != nil {
			t.Fatalf("update after fresh-id recovery: %v", err)
		}
		copy(mirror[off:], data)
	}
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("read-back mismatch after fresh-id recovery")
	}
}

// TestDialReportsMissingGeometry ensures Dial fails with a descriptive
// error against an MDS that never configured its block size, instead of
// building a client with a zero-size stripe.
func TestDialReportsMissingGeometry(t *testing.T) {
	ids := []wire.NodeID{1, 2, 3}
	mds, err := NewMDS(ids, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := transport.ServeTCP(wire.MDSNode, "127.0.0.1:0", mds.Handler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := Dial(context.Background(), srv.Addr()); err == nil {
		t.Fatal("Dial must fail when the MDS reports no block size")
	}
}

// TestDialUnreachable proves the error taxonomy holds at the dial
// boundary: a refused connection surfaces as ErrNodeUnreachable.
func TestDialUnreachable(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := Dial(ctx, "127.0.0.1:1") // nothing listens on port 1
	if err == nil {
		t.Fatal("Dial of a dead address must fail")
	}
	if !errors.Is(err, transport.ErrNodeUnreachable) {
		t.Fatalf("want ErrNodeUnreachable, got %v", err)
	}
}

// TestMDSResolverReleasesReplies: the one MDS resolver — used by Dial,
// by ecfsd's OSD role and by the TCP harness — returns every OSD's
// address but not the MDS's, and hands each KResolveAddr reply back to
// the pool.
func TestMDSResolverReleasesReplies(t *testing.T) {
	h := newTCPHarness(t, 2, 1, 3, 8<<10)
	rpc := transport.NewTCPClient(map[wire.NodeID]string{wire.MDSNode: h.addrs[wire.MDSNode]})
	defer rpc.Close()
	resolve := MDSResolver(rpc)
	balanced := armPoolDebug(t)
	for i := 0; i < 4; i++ {
		addrs, err := resolve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := addrs[wire.MDSNode]; ok || len(addrs) != 3 {
			t.Fatalf("resolved %v, want the 3 OSDs and no MDS entry", addrs)
		}
		for id, addr := range addrs {
			if addr != h.addrs[id] {
				t.Fatalf("osd %d resolved to %q, want %q", id, addr, h.addrs[id])
			}
		}
	}
	balanced()
}
