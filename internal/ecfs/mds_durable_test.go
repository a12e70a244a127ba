package ecfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/mdslog"
	"repro/internal/wire"
)

// --- deterministic mutation workload ---------------------------------
//
// The kill-point battery runs the same scripted op sequence against a
// durable MDS and an in-memory shadow, crashing the durable one at
// every sync boundary (after every committed record). Every op is a
// deterministic function of MDS state, so until the crash both sides
// evolve identically; after it, the reopened namespace must equal the
// shadow — no acknowledged mutation lost, no unacked one resurrected.

const (
	wlCreate = iota
	wlBind
	wlRebind
	wlAddNode
	wlRemoveNode
	wlDrainBegin
	wlDrainInterrupt
	wlDrainFinish
	wlDrainAbort
	wlForget
	wlAddr
	wlHeartbeatAddr
	wlMarkDead
	wlRevive
	numWlKinds
)

type wlOp struct {
	kind   int
	name   string
	stripe uint32
	node   wire.NodeID
	pick   int
}

// mdsWorkload generates a deterministic mutation-heavy script. All
// randomness is spent here, at generation time: applying an op draws
// nothing, so durable and shadow MDSes see byte-identical decisions.
func mdsWorkload(seed int64, n int) []wlOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]wlOp, 0, n)
	for i := 0; i < n; i++ {
		op := wlOp{kind: rng.Intn(numWlKinds)}
		switch op.kind {
		case wlCreate:
			op.name = fmt.Sprintf("f%d", rng.Intn(24)) // collisions exercise open-or-create
		case wlBind, wlRebind:
			op.name = fmt.Sprintf("f%d", rng.Intn(24))
			op.stripe = uint32(rng.Intn(6))
			op.pick = rng.Int()
		case wlAddr, wlHeartbeatAddr:
			op.node = wire.NodeID(1 + rng.Intn(14))
			op.name = fmt.Sprintf("127.0.0.1:%d", 7000+rng.Intn(4)) // few ports → re-announce same addr too
		default:
			op.node = wire.NodeID(1 + rng.Intn(14))
		}
		ops = append(ops, op)
	}
	return ops
}

// applyWlOp runs one scripted op against an MDS. Errors are expected
// (drain state machine refusals, crashed log) and deliberately ignored:
// the crash check happens between ops, in the runner.
func applyWlOp(m *MDS, op wlOp) {
	switch op.kind {
	case wlCreate:
		m.Create(op.name)
	case wlBind:
		// Resolve without creating so every op appends at most one
		// record — the kill-point runner's shadow cut is per-record.
		if ino := m.Files()[op.name]; ino != 0 {
			m.Lookup(ino, op.stripe)
		}
	case wlRebind:
		ino := m.Files()[op.name]
		if ino == 0 {
			return
		}
		loc, ok := m.PlacementOf(ino, op.stripe)
		if !ok {
			return
		}
		from := loc.Nodes[op.pick%len(loc.Nodes)]
		to, err := m.PickRebindTarget(ino, op.stripe, loc)
		if err != nil {
			return
		}
		m.Rebind(ino, op.stripe, from, to)
	case wlAddNode:
		m.AddNode(op.node)
	case wlRemoveNode:
		m.RemoveNode(op.node)
	case wlDrainBegin:
		m.BeginDrain(op.node)
	case wlDrainInterrupt:
		m.InterruptDrain(op.node)
	case wlDrainFinish:
		m.FinishDrain(op.node)
	case wlDrainAbort:
		m.AbortDrain(op.node)
	case wlForget:
		m.Forget(op.node)
	case wlAddr:
		m.RecordAddr(op.node, op.name)
	case wlHeartbeatAddr:
		m.HeartbeatAddr(op.node, time.Unix(1, 0), op.name)
	case wlMarkDead:
		m.MarkDead(op.node)
	case wlRevive:
		m.Heartbeat(op.node, time.Unix(2, 0))
	}
}

var wlPool = []wire.NodeID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

func wlShadow(t testing.TB) *MDS {
	t.Helper()
	sh, err := NewMDSWithShards(wlPool, 4, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// compareMDS asserts two MDSes serve the same durable namespace:
// files, placements with epochs, placement pool (order included — it
// feeds deterministic placement), reverse index, drain registry
// (running ≡ interrupted: the engine dies with the process), and the
// address map. Soft state (heartbeats, dead set) is exempt by design.
func compareMDS(t *testing.T, tag string, got, want *MDS) {
	t.Helper()
	gf, wf := got.Files(), want.Files()
	if len(gf) != len(wf) {
		t.Fatalf("%s: %d files, want %d", tag, len(gf), len(wf))
	}
	for name, ino := range wf {
		if gf[name] != ino {
			t.Fatalf("%s: file %q ino %d, want %d", tag, name, gf[name], ino)
		}
		if gs, ws := got.Stripes(ino), want.Stripes(ino); gs != ws {
			t.Fatalf("%s: %q has %d stripes, want %d", tag, name, gs, ws)
		}
		for s := uint32(0); s < 8; s++ {
			gl, gok := got.PlacementOf(ino, s)
			wl, wok := want.PlacementOf(ino, s)
			if gok != wok {
				t.Fatalf("%s: %q stripe %d placed=%v, want %v", tag, name, s, gok, wok)
			}
			if !gok {
				continue
			}
			if gl.Epoch != wl.Epoch {
				t.Fatalf("%s: %q stripe %d epoch %d, want %d", tag, name, s, gl.Epoch, wl.Epoch)
			}
			if fmt.Sprint(gl.Nodes) != fmt.Sprint(wl.Nodes) {
				t.Fatalf("%s: %q stripe %d nodes %v, want %v", tag, name, s, gl.Nodes, wl.Nodes)
			}
		}
	}
	if g, w := fmt.Sprint(got.Nodes()), fmt.Sprint(want.Nodes()); g != w {
		t.Fatalf("%s: pool %s, want %s", tag, g, w)
	}
	for id := wire.NodeID(1); id <= 20; id++ {
		if g, w := got.Draining(id), want.Draining(id); g != w {
			t.Fatalf("%s: node %d draining=%v, want %v", tag, id, g, w)
		}
		gr, wr := got.StripesOnSorted(id), want.StripesOnSorted(id)
		if len(gr) != len(wr) {
			t.Fatalf("%s: node %d hosts %d blocks, want %d", tag, id, len(gr), len(wr))
		}
		for i := range gr {
			if gr[i].Ino != wr[i].Ino || gr[i].Stripe != wr[i].Stripe || gr[i].Idx != wr[i].Idx {
				t.Fatalf("%s: node %d block %d = %+v, want %+v", tag, id, i, gr[i], wr[i])
			}
		}
	}
	ga, wa := got.AddrMap(), want.AddrMap()
	if len(ga) != len(wa) {
		t.Fatalf("%s: addr map has %d entries, want %d", tag, len(ga), len(wa))
	}
	for id, addr := range wa {
		if ga[id] != addr {
			t.Fatalf("%s: node %d addr %q, want %q", tag, id, ga[id], addr)
		}
	}
}

// runWorkload applies the script to a durable MDS and its shadow,
// stopping the shadow at the durable side's first failed append: the op
// that tripped the kill point was neither applied nor acknowledged, so
// the shadow — the state every caller was told exists — must not see it
// either. Returns the shadow.
func runWorkload(t *testing.T, md *MDS, ops []wlOp) *MDS {
	t.Helper()
	sh := wlShadow(t)
	for _, op := range ops {
		applyWlOp(md, op)
		if md.Log().Crashed() {
			break
		}
		applyWlOp(sh, op)
	}
	return sh
}

func openWorkloadMDS(t *testing.T, dir string, opts mdslog.Options) *MDS {
	t.Helper()
	md, err := OpenDurableMDS(dir, wlPool, 4, 2, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	return md
}

// TestDurableMDSCleanShutdown: close snapshots, reopen replays nothing
// and serves the identical namespace.
func TestDurableMDSCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	md := openWorkloadMDS(t, dir, mdslog.Options{})
	sh := runWorkload(t, md, mdsWorkload(11, 300))
	if err := md.Close(); err != nil {
		t.Fatal(err)
	}
	re := openWorkloadMDS(t, dir, mdslog.Options{})
	defer re.Close()
	if n, _, _ := re.Log().Stats(); n != 0 {
		t.Fatalf("clean reopen replayed %d records", n)
	}
	compareMDS(t, "clean", re, sh)
}

// TestDurableMDSKillPoints crashes the MDS at every sync boundary of a
// mutation-heavy workload: for every n, the n+1-th op-log append fails
// (the record never reaches the kernel — the tightest possible kill
// point) and the reopened namespace must equal the shadow at the crash.
func TestDurableMDSKillPoints(t *testing.T) {
	ops := mdsWorkload(23, 160)
	// Dry run to learn the total number of appends.
	dry := openWorkloadMDS(t, t.TempDir(), mdslog.Options{})
	runWorkload(t, dry, ops)
	total, _, _ := dry.Log().Stats()
	dry.Crash()
	dry.Log().Close()
	if total < 40 {
		t.Fatalf("workload appended only %d records — not mutation-heavy enough", total)
	}

	for n := int64(0); n <= total; n++ {
		dir := t.TempDir()
		md := openWorkloadMDS(t, dir, mdslog.Options{})
		md.Log().FailAppends(n)
		sh := runWorkload(t, md, ops)
		if n < total && !md.Log().Crashed() {
			t.Fatalf("kill point %d never tripped", n)
		}
		md.Crash() // kill -9 whatever survived
		md.Log().Close()
		re := openWorkloadMDS(t, dir, mdslog.Options{})
		compareMDS(t, fmt.Sprintf("kill@%d", n), re, sh)
		re.Crash()
		re.Log().Close()
	}
}

// TestDurableMDSKillPointsAcrossCompacts is the same battery with a
// snapshot threshold so small that checkpoints fire throughout the
// workload: kill points land before, between, and after compactions, so
// recovery exercises every snapshot+tail combination.
func TestDurableMDSKillPointsAcrossCompacts(t *testing.T) {
	opts := mdslog.Options{SnapshotBytes: 256}
	ops := mdsWorkload(31, 120)
	dry := openWorkloadMDS(t, t.TempDir(), opts)
	runWorkload(t, dry, ops)
	total, _, _ := dry.Log().Stats()
	dry.Crash()
	dry.Log().Close()

	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	for n := int64(0); n <= total; n += stride {
		dir := t.TempDir()
		md := openWorkloadMDS(t, dir, opts)
		md.Log().FailAppends(n)
		sh := runWorkload(t, md, ops)
		md.Crash()
		md.Log().Close()
		re := openWorkloadMDS(t, dir, opts)
		compareMDS(t, fmt.Sprintf("compact-kill@%d", n), re, sh)
		re.Crash()
		re.Log().Close()
	}
}

// TestDurableMDSStalePrefixConverges fabricates the checkpoint crash
// window: the snapshot rename lands but the log truncate never does, so
// reopen replays records the snapshot already folded in. Replay must be
// idempotent — the doubled prefix converges to the same namespace.
func TestDurableMDSStalePrefixConverges(t *testing.T) {
	dir := t.TempDir()
	md := openWorkloadMDS(t, dir, mdslog.Options{})
	half := mdsWorkload(47, 200)
	sh := runWorkload(t, md, half)
	md.Log().SkipNextTruncate()
	if err := md.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if md.Log().Size() == 0 {
		t.Fatal("test hook failed to keep the stale log prefix")
	}
	// More mutations after the torn checkpoint, then die.
	for _, op := range mdsWorkload(53, 60) {
		applyWlOp(md, op)
		applyWlOp(sh, op)
	}
	md.Crash()
	md.Log().Close()
	re := openWorkloadMDS(t, dir, mdslog.Options{})
	defer re.Close()
	compareMDS(t, "stale-prefix", re, sh)
}

// TestDurableMDSGeometryMismatchRefused: a data directory created under
// one geometry must refuse to open under another (shard choice and
// placement both derive from it — silently re-placing would corrupt).
func TestDurableMDSGeometryMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	md := openWorkloadMDS(t, dir, mdslog.Options{})
	runWorkload(t, md, mdsWorkload(3, 40))
	if err := md.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurableMDS(dir, wlPool, 4, 2, 16, mdslog.Options{}); err == nil {
		t.Fatal("shard-count mismatch opened")
	}
	if _, err := OpenDurableMDS(dir, wlPool, 6, 2, 8, mdslog.Options{}); err == nil {
		t.Fatal("geometry mismatch opened")
	}
}

// TestClusterMDSCrashRestart drives real traffic, kill -9s the durable
// MDS mid-flight, and restarts it: the namespace and placements
// survive, data written before the crash verifies, the repair
// scheduler's ledger carries across, and new writes land after.
func TestClusterMDSCrashRestart(t *testing.T) {
	ctx := context.Background()
	opts := testOptions("tsue")
	opts.MDSDataDir = t.TempDir()
	c := MustNewCluster(opts)
	defer c.Close()
	cli := c.NewClient()
	f, mirror := writeTestFile(t, c, cli, 64<<10, 9)
	ino := f.Ino()

	files := c.MDS.Files()
	stripes := c.MDS.Stripes(ino)
	locs := make([]wire.StripeLoc, stripes)
	for s := 0; s < stripes; s++ {
		locs[s], _ = c.MDS.PlacementOf(ino, uint32(s))
	}
	sched := c.Scheduler()

	if err := c.CrashMDS(); err != nil {
		t.Fatal(err)
	}
	// Metadata plane down: an uncached create cannot be acknowledged.
	if _, err := cli.Open(ctx, "during-outage"); err == nil {
		t.Fatal("create succeeded against a crashed MDS")
	}
	md, err := c.RestartMDS()
	if err != nil {
		t.Fatal(err)
	}
	if md != c.MDS {
		t.Fatal("RestartMDS did not install the reopened MDS")
	}
	if c.Scheduler() != sched {
		t.Fatal("restart replaced the repair scheduler — the rebuild ledger was lost")
	}

	gotFiles := c.MDS.Files()
	if len(gotFiles) != len(files) {
		t.Fatalf("namespace has %d files after restart, want %d", len(gotFiles), len(files))
	}
	for name, want := range files {
		if gotFiles[name] != want {
			t.Fatalf("file %q ino %d after restart, want %d", name, gotFiles[name], want)
		}
	}
	if got := c.MDS.Stripes(ino); got != stripes {
		t.Fatalf("%d stripes after restart, want %d", got, stripes)
	}
	for s := 0; s < stripes; s++ {
		loc, ok := c.MDS.PlacementOf(ino, uint32(s))
		if !ok || loc.Epoch != locs[s].Epoch || fmt.Sprint(loc.Nodes) != fmt.Sprint(locs[s].Nodes) {
			t.Fatalf("stripe %d placement %v/%v after restart, want %v", s, loc, ok, locs[s])
		}
	}

	// Acknowledged data still reads back through the reopened metadata.
	if err := c.VerifyStripes(f, mirror); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Scrub(); err != nil {
		t.Fatal(err)
	}
	got, _, err := f.ReadRange(ctx, 0, len(mirror))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("post-restart read-back mismatch")
	}

	// And the metadata plane is fully writable again.
	f2, err := cli.Open(ctx, "after-restart")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xA5}, cli.StripeSpan())
	if _, err := f2.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyStripes(f2, data); err != nil {
		t.Fatal(err)
	}
}

// TestStaleReadDuringMDSOutageFails: a client whose cached placement a
// drain retired, reading while the MDS is down, gets a transient
// stale-epoch error. It never reconstructs from the retired placement's
// survivors — their base blocks and parity can predate acknowledged
// updates — and it reads correctly again once the MDS is back.
func TestStaleReadDuringMDSOutageFails(t *testing.T) {
	opts := testOptions("tsue")
	opts.MDSDataDir = t.TempDir()
	c := MustNewCluster(opts)
	defer c.Close()
	cli := c.NewClient()
	ctx := context.Background()
	f, mirror := writeTestFile(t, c, cli, 64<<10, 11)
	// Cache every placement, then retire stripe 0's first holder.
	if got, _, err := f.ReadRange(ctx, 0, len(mirror)); err != nil || !bytes.Equal(got, mirror) {
		t.Fatalf("warm read: %v", err)
	}
	loc, _ := c.MDS.PlacementOf(f.Ino(), 0)
	if _, err := c.Drain(ctx, loc.Nodes[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashMDS(); err != nil {
		t.Fatal(err)
	}
	degraded := cli.Stats().DegradedReads
	if _, _, err := f.ReadRange(ctx, 0, 512); !errors.Is(err, wire.ErrStaleEpoch) {
		t.Fatalf("read under a retired placement with the MDS down: %v, want a stale-epoch error", err)
	}
	if got := cli.Stats().DegradedReads; got != degraded {
		t.Fatalf("the read degraded (%d reconstructions) instead of failing", got-degraded)
	}
	if _, err := c.RestartMDS(); err != nil {
		t.Fatal(err)
	}
	if got, _, err := f.ReadRange(ctx, 0, len(mirror)); err != nil || !bytes.Equal(got, mirror) {
		t.Fatalf("read after the MDS restart: %v", err)
	}
}
