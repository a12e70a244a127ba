package ecfs

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/erasure"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// tcpHarness is an in-process ECFS cluster deployed over real TCP
// loopback sockets — the cmd/ecfsd wiring, assembled for tests.
type tcpHarness struct {
	t     *testing.T
	k, m  int
	mds   *MDS
	code  *erasure.Code
	cfg   update.Config
	addrs map[wire.NodeID]string
	osds  map[wire.NodeID]*OSD
	srvs  map[wire.NodeID]*transport.TCPServer
	rpcs  []*transport.TCPClient // every pool that must learn new addresses
}

func newTCPHarness(t *testing.T, k, m, nOSDs, blockSize int) *tcpHarness {
	t.Helper()
	h := &tcpHarness{
		t: t, k: k, m: m,
		code:  erasure.MustNew(k, m, erasure.Vandermonde),
		addrs: make(map[wire.NodeID]string),
		osds:  make(map[wire.NodeID]*OSD),
		srvs:  make(map[wire.NodeID]*transport.TCPServer),
	}
	ids := make([]wire.NodeID, nOSDs)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	mds, err := NewMDS(ids, k, m)
	if err != nil {
		t.Fatal(err)
	}
	h.mds = mds
	// Self-discovery configuration, exactly as cmd/ecfsd serves it.
	mds.SetBlockSize(blockSize)
	mdsSrv, err := transport.ServeTCP(wire.MDSNode, "127.0.0.1:0", mds.Handler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mdsSrv.Close() })
	h.srvs[wire.MDSNode] = mdsSrv
	h.addrs[wire.MDSNode] = mdsSrv.Addr()
	mds.RecordAddr(wire.MDSNode, mdsSrv.Addr())

	h.cfg = update.DefaultConfig()
	h.cfg.BlockSize = blockSize
	h.cfg.UnitSize = 4 << 10
	h.cfg.MaxUnits = 4
	h.cfg.Pools = 2
	h.cfg.Workers = 2
	for _, id := range ids {
		h.addOSD(id)
	}
	h.syncAddrs()
	return h
}

// addOSD builds an OSD with its own TCP client pool and serves it. The
// OSD's pool knows only the MDS and resolves peers through the address
// map; the OSD announces its listen address with an immediate heartbeat
// — the cmd/ecfsd wiring.
func (h *tcpHarness) addOSD(id wire.NodeID) *OSD {
	h.t.Helper()
	rpc := transport.NewTCPClient(map[wire.NodeID]string{wire.MDSNode: h.addrs[wire.MDSNode]})
	rpc.SetResolver(MDSResolver(rpc))
	h.rpcs = append(h.rpcs, rpc)
	osd, err := NewOSD(id, device.ChameleonSSD(), rpc, "tsue", h.cfg, erasure.Vandermonde)
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(osd.Close)
	srv, err := transport.ServeTCP(id, "127.0.0.1:0", osd.Handler)
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(func() { srv.Close() })
	h.osds[id] = osd
	h.srvs[id] = srv
	h.addrs[id] = srv.Addr()
	osd.SetListenAddr(srv.Addr())
	if err := osd.Heartbeat(context.Background()); err != nil {
		h.t.Fatal(err)
	}
	return osd
}

// newRPC returns a TCP client pool knowing every current address.
func (h *tcpHarness) newRPC() *transport.TCPClient {
	rpc := transport.NewTCPClient(h.addrs)
	h.rpcs = append(h.rpcs, rpc)
	h.t.Cleanup(rpc.Close)
	return rpc
}

// syncAddrs pushes the current address map into every client pool
// (static-config style, as cmd/ecfsd does after all nodes are bound).
func (h *tcpHarness) syncAddrs() {
	for _, rpc := range h.rpcs {
		for id, addr := range h.addrs {
			rpc.SetAddr(id, addr)
		}
	}
}

// fail closes a node's TCP server: subsequent calls to it dial into a
// dead socket, exactly how a crashed ecfsd looks to its peers.
func (h *tcpHarness) fail(id wire.NodeID) {
	h.srvs[id].Close()
	h.mds.MarkDead(id)
}

// flush drains the strategy logs of every live OSD over TCP, phase by
// phase, with the dead list attached (the same KDrainLogs sweep
// Cluster.Flush performs in process).
func (h *tcpHarness) flushOver(rpc transport.RPC, down map[wire.NodeID]bool) func(context.Context) error {
	return func(ctx context.Context) error {
		payload := encodeDeadList(h.mds.DeadNodes())
		for phase := 1; phase <= update.DrainPhases; phase++ {
			for id := range h.osds {
				if down[id] {
					continue
				}
				resp, err := rpc.Call(ctx, id, &wire.Msg{Kind: wire.KDrainLogs, Flag: uint8(phase), Data: payload})
				if err != nil {
					return err
				}
				e := resp.Error()
				resp.Release()
				if e != nil {
					return e
				}
			}
		}
		return nil
	}
}

// TestTCPRecoveryStaleEpochReresolve runs the repair engine over real
// sockets: an OSD's server dies, RepairNode rebuilds its blocks onto a
// replacement under a *fresh* node id with every fetch, replica replay
// and epoch broadcast travelling over TCP, and a client that cached the
// pre-failure placements re-resolves via structured stale-epoch
// rejections — the real framed wire path, not the in-process transport.
func TestTCPRecoveryStaleEpochReresolve(t *testing.T) {
	ctx := context.Background()
	const (
		k, m      = 2, 1
		nOSDs     = 4
		blockSize = 8 << 10
	)
	h := newTCPHarness(t, k, m, nOSDs, blockSize)

	cli := NewClient(wire.ClientIDBase, h.newRPC(), h.code, blockSize)
	f := openFile(t, cli, "tcp-repair-vol")
	ino := f.Ino()
	mirror := make([]byte, 2*cli.StripeSpan())
	rand.New(rand.NewSource(15)).Read(mirror)
	if _, err := f.WriteAt(mirror, 0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 60; i++ {
		off := int64(rng.Intn(len(mirror) - 128))
		data := make([]byte, 1+rng.Intn(128))
		rng.Read(data)
		if _, err := f.UpdateAt(ctx, off, data, 0); err != nil {
			t.Fatalf("update over TCP: %v", err)
		}
		copy(mirror[off:], data)
	}
	// Warm the placement cache so the client is maximally stale later.
	if _, _, err := f.ReadRange(ctx, 0, len(mirror)); err != nil {
		t.Fatal(err)
	}

	// Kill the holder of stripe 0's first data block.
	loc0, err := h.mds.Lookup(ino, 0)
	if err != nil {
		t.Fatal(err)
	}
	victim := loc0.Nodes[0]
	h.fail(victim)
	down := map[wire.NodeID]bool{victim: true}

	// A replacement joins under a fresh id, served on its own socket.
	freshID := wire.NodeID(nOSDs + 5)
	repl := h.addOSD(freshID)
	h.syncAddrs()
	h.mds.AddNode(freshID)

	caller := h.newRPC()
	res, err := RepairNode(context.Background(), h.mds, caller, h.code, RepairOptions{
		K: k, M: m, Workers: 2,
		Down:  down,
		Flush: h.flushOver(caller, down),
	}, victim, repl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks == 0 {
		t.Fatal("nothing recovered over TCP")
	}
	if res.Lost != 0 || res.Rebound != res.Blocks+res.Skipped {
		t.Fatalf("implausible TCP recovery result: %+v", res)
	}
	if refs := h.mds.StripesOn(victim); len(refs) != 0 {
		t.Fatalf("victim still holds %d placements", len(refs))
	}

	// The stale client re-resolves over real sockets: reads to the moved
	// block hit a dead socket and re-resolve; reads and updates to
	// surviving members carry the old epoch and are rejected with the
	// structured wire.StatusStaleEpoch reply, re-resolved, and retried.
	got, _, err := f.ReadRange(ctx, 0, len(mirror))
	if err != nil {
		t.Fatalf("stale client read over TCP: %v", err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("stale client read mismatch over TCP")
	}
	if st := cli.Stats(); st.DegradedReads != 0 {
		t.Fatalf("post-recovery reads degraded %d times; want the normal path", st.DegradedReads)
	}
	for i := 0; i < 40; i++ {
		off := int64(rng.Intn(len(mirror) - 128))
		data := make([]byte, 1+rng.Intn(128))
		rng.Read(data)
		if _, err := f.UpdateAt(ctx, off, data, 0); err != nil {
			t.Fatalf("stale client update over TCP: %v", err)
		}
		copy(mirror[off:], data)
	}
	got, _, err = f.ReadRange(ctx, 0, len(mirror))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("post-update read mismatch over TCP")
	}

	// No repair is active anymore: the status RPC reports an idle queue.
	resp, err := caller.Call(context.Background(), wire.MDSNode, &wire.Msg{Kind: wire.KRepairStatus})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Val != 0 {
		t.Fatalf("repair status = %d pending, want 0", resp.Val)
	}

	// Drain over TCP and verify parity on the rebound stripes locally.
	if err := h.flushOver(caller, down)(context.Background()); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		loc, err := h.mds.Lookup(ino, uint32(s))
		if err != nil {
			t.Fatal(err)
		}
		if loc.Epoch == 0 {
			t.Fatalf("stripe %d not epoch-bumped", s)
		}
		data := make([][]byte, k)
		parity := make([][]byte, m)
		for i := 0; i < k+m; i++ {
			b := wire.BlockID{Ino: ino, Stripe: uint32(s), Idx: uint8(i)}
			holder := h.osds[loc.Nodes[i]]
			if holder == nil {
				t.Fatalf("stripe %d block %d placed on unknown node %d", s, i, loc.Nodes[i])
			}
			snap, ok := holder.Store().Snapshot(b)
			if !ok {
				t.Fatalf("block %v missing on node %d", b, loc.Nodes[i])
			}
			if i < k {
				data[i] = snap
			} else {
				parity[i-k] = snap
			}
		}
		ok, err := h.code.Verify(data, parity)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("stripe %d parity inconsistent after TCP recovery", s)
		}
	}
}

// updatedTCPFile writes two stripes of a fresh file over TCP and applies
// small updates to it, so its blocks carry replica-log and parity-log
// state for a repair or drain to replay. It returns the file and the
// expected content.
func updatedTCPFile(t *testing.T, h *tcpHarness) (*File, []byte) {
	t.Helper()
	ctx := context.Background()
	cli := NewClient(wire.ClientIDBase, h.newRPC(), h.code, h.cfg.BlockSize)
	f := openFile(t, cli, "tcp-pool-vol")
	mirror := make([]byte, 2*cli.StripeSpan())
	rng := rand.New(rand.NewSource(21))
	rng.Read(mirror)
	if _, err := f.WriteAt(mirror, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		off := int64(rng.Intn(len(mirror) - 128))
		data := make([]byte, 1+rng.Intn(128))
		rng.Read(data)
		if _, err := f.UpdateAt(ctx, off, data, 0); err != nil {
			t.Fatal(err)
		}
		copy(mirror[off:], data)
	}
	return f, mirror
}

// armPoolDebug arms the pooled-buffer detector and returns a check that
// waits for every buffer attached since to be released (handlers and
// background recyclers settle asynchronously), failing the test if
// some never are.
func armPoolDebug(t *testing.T) func() {
	t.Helper()
	transport.SetPoolDebug(true)
	t.Cleanup(func() { transport.SetPoolDebug(false) })
	base := transport.PoolDebugOutstanding()
	return func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for transport.PoolDebugOutstanding() != base {
			if time.Now().After(deadline) {
				t.Fatalf("pooled response buffers leaked: outstanding=%d want %d",
					transport.PoolDebugOutstanding(), base)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestTCPRepairNodeReleasesReplies: every pooled reply a repair
// receives over TCP — the engine's shard fetches, epoch broadcasts and
// error replies, and the replacement's replica-log fetches and parity
// deltas — goes back to the pool, and the rebuilt data is intact.
func TestTCPRepairNodeReleasesReplies(t *testing.T) {
	const k, m, nOSDs = 2, 1, 4
	h := newTCPHarness(t, k, m, nOSDs, 8<<10)
	f, mirror := updatedTCPFile(t, h)
	loc0, err := h.mds.Lookup(f.Ino(), 0)
	if err != nil {
		t.Fatal(err)
	}
	victim := loc0.Nodes[0]
	h.fail(victim)
	down := map[wire.NodeID]bool{victim: true}
	freshID := wire.NodeID(nOSDs + 5)
	repl := h.addOSD(freshID)
	h.syncAddrs()
	h.mds.AddNode(freshID)
	caller := h.newRPC()

	balanced := armPoolDebug(t)
	res, err := RepairNode(context.Background(), h.mds, caller, h.code, RepairOptions{
		K: k, M: m, Workers: 2,
		Down:  down,
		Flush: h.flushOver(caller, down),
	}, victim, repl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks == 0 {
		t.Fatal("nothing recovered")
	}
	balanced()

	if got, _, err := f.ReadRange(context.Background(), 0, len(mirror)); err != nil || !bytes.Equal(got, mirror) {
		t.Fatalf("read after repair: err=%v", err)
	}
}

// TestTCPMigrateNodeReleasesReplies: the drain engine's fetch, store,
// fence, epoch-broadcast and source log-drain replies all go back to
// the pool, and the migrated data is intact.
func TestTCPMigrateNodeReleasesReplies(t *testing.T) {
	const k, m = 2, 1
	h := newTCPHarness(t, k, m, 4, 8<<10)
	f, mirror := updatedTCPFile(t, h)
	loc0, err := h.mds.Lookup(f.Ino(), 0)
	if err != nil {
		t.Fatal(err)
	}
	node := loc0.Nodes[0]
	caller := h.newRPC()

	balanced := armPoolDebug(t)
	res, err := MigrateNode(context.Background(), h.mds, caller, RepairOptions{
		K: k, M: m, Workers: 2,
		Flush: h.flushOver(caller, nil),
	}, node)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved == 0 {
		t.Fatal("nothing migrated")
	}
	balanced()

	if got, _, err := f.ReadRange(context.Background(), 0, len(mirror)); err != nil || !bytes.Equal(got, mirror) {
		t.Fatalf("read after drain: err=%v", err)
	}
}
