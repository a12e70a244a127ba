package ecfs

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestRepairQueueOrdering pins the queue's contract: FIFO by default,
// promotions jump to the front, the most recent promotion foremost, and
// hints for unknown or already-popped stripes are no-ops.
func TestRepairQueueOrdering(t *testing.T) {
	refs := make([]StripeRef, 6)
	for i := range refs {
		refs[i] = StripeRef{Ino: 1, Stripe: uint32(i)}
	}
	q := newRepairQueue(refs)
	if q.pending() != 6 {
		t.Fatalf("pending = %d", q.pending())
	}
	if q.promote(1, 99) {
		t.Fatal("promoting an unknown stripe must be a no-op")
	}
	if !q.promote(1, 3) || !q.promote(1, 5) {
		t.Fatal("promoting pending stripes must succeed")
	}
	var got []uint32
	for {
		ref, seed, order, ok := q.pop()
		if !ok {
			break
		}
		if seed != int(ref.Stripe) {
			t.Fatalf("seed %d for stripe %d", seed, ref.Stripe)
		}
		if order != len(got) {
			t.Fatalf("order %d at pop %d", order, len(got))
		}
		got = append(got, ref.Stripe)
	}
	want := []uint32{5, 3, 0, 1, 2, 4} // latest promotion first, then FIFO
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
	if q.promote(1, 0) {
		t.Fatal("promoting a popped stripe must be a no-op")
	}
	if q.promotions() != 2 {
		t.Fatalf("promotions = %d, want 2", q.promotions())
	}
}

// TestPrioritizedRepairReordersQueue is the tentpole's end-to-end proof:
// mid-recovery, a degraded read promotes its stripe to the front of the
// rebuild queue (ahead of its FIFO rank), the stripe is rebound under a
// bumped epoch as soon as it completes, and the next read of it is
// served by the replacement via the normal read path — no K-way decode —
// while the rest of the recovery is still running.
func TestPrioritizedRepairReordersQueue(t *testing.T) {
	ctx := context.Background()
	c, cli, f, mirror := buildRecoveryCluster(t, "tsue", 150)
	defer c.Close()
	c.Opts.RecoveryWorkers = 1
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Warm the client's placement cache across the whole file.
	if _, _, err := f.ReadRange(ctx, 0, len(mirror)); err != nil {
		t.Fatal(err)
	}

	// Pick the OSD hosting the longest work list (placement depends on
	// the ino, which per-shard allocation no longer pins to 1).
	victim := c.OSDs[2]
	for _, o := range c.OSDs {
		if len(c.MDS.StripesOn(o.ID())) > len(c.MDS.StripesOn(victim.ID())) {
			victim = o
		}
	}
	c.FailOSD(victim.ID())
	freshID := wire.NodeID(c.Opts.NumOSDs + 7)
	repl := newFreshReplacement(t, c, freshID)
	c.AddOSD(repl)

	refs := c.MDS.StripesOnSorted(victim.ID())
	if len(refs) < 4 {
		t.Fatalf("victim hosts only %d stripes; test needs a longer work list", len(refs))
	}
	// The hot stripe: the FIFO-last *data* block the victim hosts, so a
	// client read of it degrades while the victim is down.
	hotSeed := -1
	for i := len(refs) - 1; i > 1; i-- {
		if int(refs[i].Idx) < c.Opts.K {
			hotSeed = i
			break
		}
	}
	if hotSeed < 0 {
		t.Fatal("victim hosts no data blocks beyond the queue head")
	}
	hot := refs[hotSeed]

	// Gate the rebuilds of the two FIFO-first stripes: every shard fetch
	// for them blocks until released, pinning the single worker at a
	// known queue position.
	gates := map[stripeKey]chan struct{}{
		{refs[0].Ino, refs[0].Stripe}: make(chan struct{}),
		{refs[1].Ino, refs[1].Stripe}: make(chan struct{}),
	}
	var gateMu sync.Mutex // protects gates map reads vs. test-side deletes
	for _, o := range c.Alive() {
		o := o
		c.Tr.Register(o.ID(), func(hctx context.Context, msg *wire.Msg) *wire.Resp {
			if msg.Kind == wire.KBlockFetch {
				gateMu.Lock()
				gate := gates[stripeKey{msg.Block.Ino, msg.Block.Stripe}]
				gateMu.Unlock()
				if gate != nil {
					<-gate
				}
			}
			return o.Handler(hctx, msg)
		})
	}

	type recDone struct {
		res *RecoveryResult
		err error
	}
	done := make(chan recDone, 1)
	go func() {
		res, err := c.Recover(context.Background(), victim.ID(), repl)
		done <- recDone{res, err}
	}()

	status := c.Tr.Caller(wire.MDSNode)
	waitPending := func(want int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := status.Call(context.Background(), wire.MDSNode, &wire.Msg{Kind: wire.KRepairStatus})
			if err != nil {
				t.Fatal(err)
			}
			if int(resp.Val) == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("repair queue pending = %d, want %d", resp.Val, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// The worker pops the FIFO head and blocks on its gated fetches.
	waitPending(len(refs) - 1)

	// A degraded read of the hot stripe: the victim is down, so the
	// client decodes from survivors — and promotes the stripe.
	span := int64(cli.StripeSpan())
	hotOff := int64(hot.Stripe)*span + int64(hot.Idx)*int64(c.Opts.BlockSize)
	got, _, err := f.ReadRange(ctx, hotOff, 64)
	if err != nil {
		t.Fatalf("degraded read of the hot stripe: %v", err)
	}
	if !bytes.Equal(got, mirror[hotOff:hotOff+64]) {
		t.Fatal("degraded read content mismatch")
	}
	if st := cli.Stats(); st.DegradedReads != 1 || st.RepairHints != 1 {
		t.Fatalf("stats after degraded read: %+v", st)
	}

	// Release the queue head. The worker finishes it, then must pick the
	// promoted hot stripe — jumping it ahead of its FIFO rank — and then
	// block on the gated second stripe.
	gateMu.Lock()
	close(gates[stripeKey{refs[0].Ino, refs[0].Stripe}])
	delete(gates, stripeKey{refs[0].Ino, refs[0].Stripe})
	gateMu.Unlock()
	waitPending(len(refs) - 3) // head + hot popped, second stripe in flight

	// Mid-recovery: the hot stripe is rebuilt and rebound. Its next read
	// re-resolves to the bumped epoch and is served by the replacement
	// through the normal read path — no additional K-way decode.
	loc, err := c.MDS.Lookup(hot.Ino, hot.Stripe)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Epoch == 0 {
		t.Fatal("hot stripe not rebound mid-recovery")
	}
	if loc.Nodes[hot.Idx] != repl.ID() {
		t.Fatalf("hot block hosted by %d, want replacement %d", loc.Nodes[hot.Idx], repl.ID())
	}
	got, _, err = f.ReadRange(ctx, hotOff, 64)
	if err != nil {
		t.Fatalf("post-cutover read of the hot stripe: %v", err)
	}
	if !bytes.Equal(got, mirror[hotOff:hotOff+64]) {
		t.Fatal("post-cutover read content mismatch")
	}
	if st := cli.Stats(); st.DegradedReads != 1 {
		t.Fatalf("post-cutover read decoded again: %+v", st)
	}

	gateMu.Lock()
	close(gates[stripeKey{refs[1].Ino, refs[1].Stripe}])
	delete(gates, stripeKey{refs[1].Ino, refs[1].Stripe})
	gateMu.Unlock()
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Promoted != 1 {
		t.Fatalf("Promoted = %d, want 1", out.res.Promoted)
	}
	// The proof of reordering: the hot stripe executed second despite
	// being seeded near the end of the FIFO order.
	if order := out.res.Stripes[hotSeed].Order; order != 1 {
		t.Fatalf("hot stripe executed at order %d, want 1 (FIFO rank %d)", order, hotSeed)
	}
	for seed, sr := range out.res.Stripes {
		if seed != hotSeed && seed > 1 && sr.Order < 2 {
			t.Fatalf("unpromoted stripe seed %d executed at order %d", seed, sr.Order)
		}
	}

	// And the recovery is complete and correct.
	got, _, err = f.ReadRange(ctx, 0, len(mirror))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("post-recovery read mismatch")
	}
}

// TestRecoverFIFOKeepsSeedOrder pins the baseline the benchmark
// compares against: without promotion the execution order is exactly
// the deterministic FIFO seed order, and repair hints are ignored.
func TestRecoverFIFOKeepsSeedOrder(t *testing.T) {
	c, _, _, _ := buildRecoveryCluster(t, "tsue", 100)
	defer c.Close()
	c.Opts.RecoveryWorkers = 1
	victim := c.OSDs[2]
	c.FailOSD(victim.ID())
	repl := newTestReplacement(t, c, victim.ID())
	defer repl.Close()
	res, err := c.RecoverFIFO(context.Background(), victim.ID(), repl)
	if err != nil {
		t.Fatal(err)
	}
	for seed, sr := range res.Stripes {
		if sr.Order != seed {
			t.Fatalf("FIFO recovery executed seed %d at order %d", seed, sr.Order)
		}
	}
	if res.Promoted != 0 {
		t.Fatalf("FIFO recovery promoted %d stripes", res.Promoted)
	}
}

func newFreshReplacement(t *testing.T, c *Cluster, id wire.NodeID) *OSD {
	t.Helper()
	cfg := *c.Opts.Strategy
	cfg.BlockSize = c.Opts.BlockSize
	repl, err := NewOSD(id, c.Opts.Device, c.Tr.Caller(id), c.Opts.Method, cfg, c.Opts.Kind)
	if err != nil {
		t.Fatal(err)
	}
	return repl
}

// buildDrainCluster assembles a cluster whose log units are too large to
// recycle mid-test (the drain contract quiesces logs up front; the
// read-through fence carries anything that lands after).
func buildDrainCluster(t *testing.T, updates int) (*Cluster, *File, []byte) {
	t.Helper()
	ctx := context.Background()
	opts := testOptions("tsue")
	cfg := *opts.Strategy
	cfg.UnitSize = 16 << 20
	opts.Strategy = &cfg
	c := MustNewCluster(opts)
	cli := c.NewClient()
	fileSize := 64 << 10
	f, mirror := writeTestFile(t, c, cli, fileSize, 61)
	rng := rand.New(rand.NewSource(67))
	for i := 0; i < updates; i++ {
		off := int64(rng.Intn(fileSize - 256))
		data := make([]byte, 1+rng.Intn(256))
		rng.Read(data)
		if _, err := f.UpdateAt(ctx, off, data, 0); err != nil {
			t.Fatal(err)
		}
		copy(mirror[off:], data)
	}
	return c, f, mirror
}

// TestDrainMigratesLiveNode drains a live node while clients keep
// reading and updating: no client operation may fail, every stripe must
// leave the node, and the final content must verify byte-for-byte.
func TestDrainMigratesLiveNode(t *testing.T) {
	ctx := context.Background()
	c, f, mirror := buildDrainCluster(t, 150)
	defer c.Close()

	node := c.OSDs[2].ID()
	before := len(c.MDS.StripesOnSorted(node))
	if before == 0 {
		t.Fatal("drain target hosts nothing")
	}

	// Concurrent workload: two updaters own disjoint regions at the
	// front of the file; two readers verify a quiet region at the back.
	var (
		wg     sync.WaitGroup
		mirMu  sync.Mutex
		stop   = make(chan struct{})
		opErrs = make(chan error, 8)
	)
	region := len(mirror) / 8
	for u := 0; u < 2; u++ {
		uf := openFile(t, c.NewClient(), f.Name())
		wg.Add(1)
		go func(u int, uf *File) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + u)))
			base := u * region
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				off := int64(base + rng.Intn(region-64))
				data := make([]byte, 1+rng.Intn(64))
				rng.Read(data)
				if _, err := uf.UpdateAt(ctx, off, data, 0); err != nil {
					opErrs <- err
					return
				}
				mirMu.Lock()
				copy(mirror[off:], data)
				mirMu.Unlock()
			}
		}(u, uf)
	}
	quiet := mirror[6*region : 7*region]
	for r := 0; r < 2; r++ {
		rf := openFile(t, c.NewClient(), f.Name())
		wg.Add(1)
		go func(r int, rf *File) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				off := rng.Intn(region - 128)
				n := 1 + rng.Intn(128)
				got, _, err := rf.ReadRange(ctx, int64(6*region+off), n)
				if err != nil {
					opErrs <- err
					return
				}
				if !bytes.Equal(got, quiet[off:off+n]) {
					opErrs <- errReadMismatch{off: int64(off), n: n}
					return
				}
			}
		}(r, rf)
	}

	res, err := c.Drain(context.Background(), node)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case cerr := <-opErrs:
		t.Fatalf("client operation failed during drain: %v", cerr)
	default:
	}

	if got := len(c.MDS.StripesOn(node)); got != 0 {
		t.Fatalf("%d stripes still on the drained node", got)
	}
	if res.Moved == 0 || res.Rebound != res.Moved+res.Skipped {
		t.Fatalf("implausible drain result: %+v", res)
	}
	if res.Rebound != before {
		t.Fatalf("rebound %d placements, node hosted %d", res.Rebound, before)
	}
	for _, id := range c.MDS.Nodes() {
		if id == node {
			t.Fatal("drained node still in the placement pool")
		}
	}
	for _, mv := range res.Moves {
		if !mv.Skipped && mv.To == node {
			t.Fatalf("stripe %d/%d moved onto the draining node", mv.Ino, mv.Stripe)
		}
	}

	// The stale client and a fresh one both see the migrated content.
	got, _, err := f.ReadRange(ctx, 0, len(mirror))
	if err != nil {
		t.Fatal(err)
	}
	mirMu.Lock()
	snap := append([]byte(nil), mirror...)
	mirMu.Unlock()
	if !bytes.Equal(got, snap) {
		t.Fatal("post-drain read mismatch")
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyStripes(f, snap); err != nil {
		t.Fatal(err)
	}
}

// TestDecommissionRetiresNode pins the end of the planned-migration
// path: Decommission drains the node and removes it from the topology,
// after which every client operation keeps working.
func TestDecommissionRetiresNode(t *testing.T) {
	ctx := context.Background()
	c, f, mirror := buildDrainCluster(t, 100)
	defer c.Close()

	node := c.OSDs[1].ID()
	res, err := c.Decommission(context.Background(), node)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved == 0 {
		t.Fatal("nothing migrated")
	}
	if c.OSD(node) != nil {
		t.Fatal("decommissioned node still in the OSD list")
	}
	if _, err := c.Tr.Caller(wire.MDSNode).Call(context.Background(), node, &wire.Msg{Kind: wire.KPing}); err == nil {
		t.Fatal("decommissioned node still answers the transport")
	}
	if _, ok := c.MDS.LastHeartbeat(node); ok {
		t.Fatal("decommissioned node still has liveness state")
	}

	// The stale client re-resolves; updates and a full read succeed.
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 50; i++ {
		off := int64(rng.Intn(len(mirror) - 128))
		data := make([]byte, 1+rng.Intn(128))
		rng.Read(data)
		if _, err := f.UpdateAt(ctx, off, data, 0); err != nil {
			t.Fatalf("post-decommission update: %v", err)
		}
		copy(mirror[off:], data)
	}
	got, _, err := f.ReadRange(ctx, 0, len(mirror))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("post-decommission read mismatch")
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyStripes(f, mirror); err != nil {
		t.Fatal(err)
	}
}

// TestDrainParityPendingLogsPL pins the parity-layer handover: PL
// buffers parity deltas in the parity holder's log, which a read-through
// fetch cannot merge (deltas are XORs, not content). MigrateNode must
// fold the source's pending logs into its base blocks before taking a
// parity block's final copy — here exercised deterministically by
// migrating with *pending* parity logs (no pre-drain flush).
func TestDrainParityPendingLogsPL(t *testing.T) {
	ctx := context.Background()
	c := MustNewCluster(testOptions("pl"))
	defer c.Close()
	cli := c.NewClient()
	fileSize := 64 << 10
	f, mirror := writeTestFile(t, c, cli, fileSize, 83)
	rng := rand.New(rand.NewSource(89))
	for i := 0; i < 200; i++ {
		off := int64(rng.Intn(fileSize - 256))
		data := make([]byte, 1+rng.Intn(256))
		rng.Read(data)
		if _, err := f.UpdateAt(ctx, off, data, 0); err != nil {
			t.Fatal(err)
		}
		copy(mirror[off:], data)
	}

	// Migrate a node while its parity logs still hold undrained deltas:
	// no Flush hook, so only the per-stripe source drain can save them.
	node := c.OSDs[2].ID()
	res, err := MigrateNode(context.Background(), c.MDS, c.Tr.Caller(wire.MDSNode), RepairOptions{
		K: c.Opts.K, M: c.Opts.M, Workers: 2,
	}, node)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved == 0 {
		t.Fatal("nothing migrated")
	}
	if got := len(c.MDS.StripesOn(node)); got != 0 {
		t.Fatalf("%d stripes still on the drained node", got)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyStripes(f, mirror); err != nil {
		t.Fatalf("parity lost in migration: %v", err)
	}
}

// TestDrainRollsBackPoolOnFailure: a drain that aborts partway must
// re-admit the (still live, still hosting) node to the placement pool.
func TestDrainRollsBackPoolOnFailure(t *testing.T) {
	c, f, _ := buildDrainCluster(t, 50)
	defer c.Close()
	node := c.OSDs[2].ID()

	// Every block store fails: the first migration errors out.
	for _, o := range c.Alive() {
		o := o
		if o.ID() == node {
			continue
		}
		c.Tr.Register(o.ID(), func(hctx context.Context, msg *wire.Msg) *wire.Resp {
			if msg.Kind == wire.KBlockStore {
				return &wire.Resp{Err: "injected store failure"}
			}
			return o.Handler(hctx, msg)
		})
	}
	if _, err := c.Drain(context.Background(), node); err == nil {
		t.Fatal("drain must fail when destinations reject stores")
	}
	found := false
	for _, id := range c.MDS.Nodes() {
		if id == node {
			found = true
		}
	}
	if !found {
		t.Fatal("failed drain left the live node evicted from the placement pool")
	}
	// The cluster still works end to end once the fault clears.
	for _, o := range c.Alive() {
		c.Tr.Register(o.ID(), o.Handler)
	}
	if _, _, err := openFile(t, c.NewClient(), f.Name()).ReadRange(context.Background(), 0, 4096); err != nil {
		t.Fatal(err)
	}
}

// TestDrainValidation: drains that cannot preserve placement invariants
// must be refused up front.
func TestDrainValidation(t *testing.T) {
	// A minimum-size pool (K+M nodes) cannot lose a member.
	opts := testOptions("tsue")
	opts.NumOSDs = opts.K + opts.M
	c := MustNewCluster(opts)
	defer c.Close()
	cli := c.NewClient()
	writeTestFile(t, c, cli, 32<<10, 3)
	if _, err := c.Drain(context.Background(), c.OSDs[0].ID()); err == nil {
		t.Fatal("draining a minimum-size pool must fail")
	}

	c2 := MustNewCluster(testOptions("tsue"))
	defer c2.Close()
	if _, err := c2.Drain(context.Background(), wire.NodeID(999)); err == nil {
		t.Fatal("draining an unknown node must fail")
	}
	// A failed node cannot be drained (it cannot source its blocks).
	c2.FailOSD(c2.OSDs[3].ID())
	if _, err := c2.Drain(context.Background(), c2.OSDs[3].ID()); err == nil {
		t.Fatal("draining a failed node must fail")
	}
}
