package ecfs

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// buildResumeCluster is buildDrainCluster with a bigger file, so a
// drained node hosts enough stripes that cancelling partway leaves
// meaningful work for the resume. workers is the drain parallelism
// (<= 0 selects DefaultRecoveryWorkers).
func buildResumeCluster(t *testing.T, updates, workers int) (*Cluster, *File, []byte) {
	t.Helper()
	ctx := context.Background()
	opts := testOptions("tsue")
	opts.RecoveryWorkers = workers
	cfg := *opts.Strategy
	cfg.UnitSize = 16 << 20 // no mid-test recycling; the drain quiesces logs up front
	opts.Strategy = &cfg
	c := MustNewCluster(opts)
	cli := c.NewClient()
	fileSize := 256 << 10
	f, mirror := writeTestFile(t, c, cli, fileSize, 101)
	rng := rand.New(rand.NewSource(103))
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

// poolSnapshot returns the placement pool as a set.
func poolSnapshot(c *Cluster) map[wire.NodeID]bool {
	out := make(map[wire.NodeID]bool)
	for _, id := range c.MDS.Nodes() {
		out[id] = true
	}
	return out
}

// TestDrainCancelResume is the resumable-drain acceptance proof: a
// drain cancelled mid-way (a) returns the completed moves alongside the
// cancellation, (b) keeps the node marked draining and OUT of the
// placement pool — no evicted-then-restored flap — and (c) a second
// Drain on the same node completes from the remaining stripes with
// no stripe migrated twice.
func TestDrainCancelResume(t *testing.T) {
	ctx := context.Background()
	c, f, mirror := buildResumeCluster(t, 150, 1)
	defer c.Close()

	node := c.OSDs[2].ID()
	before := len(c.MDS.StripesOnSorted(node))
	if before < 6 {
		t.Fatalf("drain target hosts only %d stripes; test needs more", before)
	}
	poolBefore := poolSnapshot(c)

	// Cancel the drain from inside the source's fence handler: the Nth
	// per-stripe cutover fence (KEpochUpdate at the source) pulls the
	// plug, so the cancellation point is deterministic with one worker.
	const cancelAfter = 2
	ctx1, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := c.OSD(node)
	var fences atomic.Int32
	c.Tr.Register(node, func(hctx context.Context, msg *wire.Msg) *wire.Resp {
		if msg.Kind == wire.KEpochUpdate && fences.Add(1) == cancelAfter {
			cancel()
		}
		return src.Handler(hctx, msg)
	})

	res1, err := c.Drain(ctx1, node)
	c.Tr.Register(node, src.Handler)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled drain returned %v, want context.Canceled", err)
	}
	if res1 == nil {
		t.Fatal("cancelled drain returned no partial result")
	}
	if res1.Resumed {
		t.Fatal("first drain reported Resumed")
	}
	if len(res1.Moves) == 0 || len(res1.Moves) >= before {
		t.Fatalf("cancelled drain completed %d of %d moves; test needs a partial run", len(res1.Moves), before)
	}
	for _, mv := range res1.Moves {
		if !mv.Done {
			t.Fatalf("partial result contains an incomplete move: %+v", mv)
		}
	}

	// Between cancel and resume: the node must stay marked draining and
	// stay out of the pool, and no other node's membership may change.
	if !c.MDS.Draining(node) {
		t.Fatal("cancelled drain cleared the draining mark")
	}
	poolAfter := poolSnapshot(c)
	if poolAfter[node] {
		t.Fatal("cancelled drain restored the node to the placement pool")
	}
	for id := range poolBefore {
		if id != node && !poolAfter[id] {
			t.Fatalf("node %d vanished from the pool during the cancelled drain", id)
		}
	}
	if len(poolAfter) != len(poolBefore)-1 {
		t.Fatalf("pool size %d after cancel, want %d", len(poolAfter), len(poolBefore)-1)
	}

	remaining := len(c.MDS.StripesOn(node))
	if remaining == 0 || remaining >= before {
		t.Fatalf("%d of %d stripes remaining after cancel; test needs a partial run", remaining, before)
	}
	// Every stripe the MDS no longer places on the node must appear as a
	// completed move: a cancellation arriving after a stripe's rebind
	// must not strand it rebound-but-unfenced — the resume re-seeds from
	// StripesOn, which would never revisit it, so the mandatory
	// fence/refetch would be lost. migrateStripe detaches from the drain
	// context at the rebind to guarantee this.
	if got, want := len(res1.Moves), before-remaining; got != want {
		t.Fatalf("cancelled drain completed %d moves but %d stripes left the node — a stripe was stranded mid-cutover", got, want)
	}

	// Resume. The second run must complete, re-seeded from the
	// remaining stripes only.
	res2, err := c.Drain(context.Background(), node)
	if err != nil {
		t.Fatalf("resumed drain: %v", err)
	}
	if !res2.Resumed {
		t.Fatal("second drain did not report Resumed")
	}
	if len(res2.Moves) != remaining {
		t.Fatalf("resumed drain migrated %d stripes, want the %d remaining", len(res2.Moves), remaining)
	}
	// No stripe migrated twice: the two runs' move sets are disjoint.
	seen := make(map[stripeKey]bool, len(res1.Moves))
	for _, mv := range res1.Moves {
		seen[stripeKey{mv.Ino, mv.Stripe}] = true
	}
	for _, mv := range res2.Moves {
		if seen[stripeKey{mv.Ino, mv.Stripe}] {
			t.Fatalf("stripe %d/%d migrated by both runs", mv.Ino, mv.Stripe)
		}
	}

	// Drained for real: nothing left, mark cleared, node still out of
	// the pool (exactly like an uninterrupted drain), content intact.
	if got := len(c.MDS.StripesOn(node)); got != 0 {
		t.Fatalf("%d stripes still on the node after resume", got)
	}
	if c.MDS.Draining(node) {
		t.Fatal("completed resume left the draining mark set")
	}
	if poolSnapshot(c)[node] {
		t.Fatal("completed resume re-admitted the drained node")
	}
	got, _, err := f.ReadRange(ctx, 0, len(mirror))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("post-resume read mismatch")
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyStripes(f, mirror); err != nil {
		t.Fatal(err)
	}
}

// TestAbortDrainRestoresPool: an operator who cancels a drain and then
// abandons it gets the node back in the placement pool with the
// draining mark cleared.
func TestAbortDrainRestoresPool(t *testing.T) {
	c, _, _ := buildResumeCluster(t, 50, 1)
	defer c.Close()
	node := c.OSDs[2].ID()

	ctx1, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := c.OSD(node)
	var fences atomic.Int32
	c.Tr.Register(node, func(hctx context.Context, msg *wire.Msg) *wire.Resp {
		if msg.Kind == wire.KEpochUpdate && fences.Add(1) == 1 {
			cancel()
		}
		return src.Handler(hctx, msg)
	})
	if _, err := c.Drain(ctx1, node); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled drain returned %v", err)
	}
	c.Tr.Register(node, src.Handler)

	if !c.AbortDrain(node) {
		t.Fatal("AbortDrain refused an interrupted drain")
	}
	if c.MDS.Draining(node) {
		t.Fatal("AbortDrain left the draining mark")
	}
	if !poolSnapshot(c)[node] {
		t.Fatal("AbortDrain did not re-admit the node to the pool")
	}
}

// TestBeginDrainRejectsRunning pins the drain state machine: a node
// whose drain is actively running rejects a second BeginDrain (two
// engines migrating the same stripes would race their
// rebind/fence/refetch sequences); only an *interrupted* drain is
// resumable, and resuming puts it back in the running state.
func TestBeginDrainRejectsRunning(t *testing.T) {
	m, err := NewMDS([]wire.NodeID{1, 2, 3, 4, 5, 6, 7}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := m.BeginDrain(7)
	if err != nil || resumed {
		t.Fatalf("fresh BeginDrain = (resumed=%v, err=%v), want (false, nil)", resumed, err)
	}
	for _, id := range m.Nodes() {
		if id == 7 {
			t.Fatal("BeginDrain left the node in the placement pool")
		}
	}
	if _, err := m.BeginDrain(7); err == nil {
		t.Fatal("BeginDrain on a running drain must be rejected")
	}
	if m.AbortDrain(7) {
		t.Fatal("AbortDrain on a running drain must be refused")
	}
	if !m.Draining(7) {
		t.Fatal("refused AbortDrain cleared the running drain's mark")
	}

	m.InterruptDrain(7)
	if !m.Draining(7) {
		t.Fatal("interrupted drain lost its draining mark")
	}
	resumed, err = m.BeginDrain(7)
	if err != nil || !resumed {
		t.Fatalf("resuming BeginDrain = (resumed=%v, err=%v), want (true, nil)", resumed, err)
	}
	for _, id := range m.Nodes() {
		if id == 7 {
			t.Fatal("resume re-admitted the node to the placement pool")
		}
	}
	if _, err := m.BeginDrain(7); err == nil {
		t.Fatal("a resumed (running again) drain must reject a concurrent BeginDrain")
	}

	m.FinishDrain(7)
	if m.Draining(7) {
		t.Fatal("FinishDrain left the draining mark")
	}
	// InterruptDrain on a node with no drain must not invent one.
	m.InterruptDrain(7)
	if m.Draining(7) {
		t.Fatal("InterruptDrain marked a node with no drain")
	}
}

// TestAbandonedDrainSkipsDeadNode: a node that dies mid-drain must not
// re-enter the placement pool when its drain is abandoned — placement
// never selects dead nodes, and the drain's eviction must not become
// the loophole.
func TestAbandonedDrainSkipsDeadNode(t *testing.T) {
	m, err := NewMDS([]wire.NodeID{1, 2, 3, 4, 5, 6, 7}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.BeginDrain(7); err != nil {
		t.Fatal(err)
	}
	m.InterruptDrain(7)
	m.MarkDead(7) // the node fails between the Ctrl-C and the abort
	if !m.AbortDrain(7) {
		t.Fatal("AbortDrain refused an interrupted drain")
	}
	if m.Draining(7) {
		t.Fatal("AbortDrain left the draining mark")
	}
	for _, id := range m.Nodes() {
		if id == 7 {
			t.Fatal("AbortDrain re-admitted a dead node to the placement pool")
		}
	}
	// Once the node is actually back, explicit re-admission works.
	m.Heartbeat(7, time.Now())
	m.AddNode(7)
	found := false
	for _, id := range m.Nodes() {
		if id == 7 {
			found = true
		}
	}
	if !found {
		t.Fatal("recovered node could not rejoin the pool")
	}
}

// TestConcurrentDrainRejected drives the same guarantee end to end: a
// second Drain on a node whose drain is still executing fails
// instead of racing the first engine over the same stripes.
func TestConcurrentDrainRejected(t *testing.T) {
	c, _, _ := buildResumeCluster(t, 20, 1)
	defer c.Close()
	node := c.OSDs[2].ID()
	src := c.OSD(node)

	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	c.Tr.Register(node, func(hctx context.Context, msg *wire.Msg) *wire.Resp {
		if msg.Kind == wire.KBlockFetch {
			once.Do(func() { close(entered) })
			<-gate
		}
		return src.Handler(hctx, msg)
	})

	done := make(chan error, 1)
	go func() {
		_, err := c.Drain(context.Background(), node)
		done <- err
	}()
	<-entered // the first drain is past BeginDrain, copying its first stripe

	if _, err := c.Drain(context.Background(), node); err == nil {
		t.Fatal("second Drain on a running drain must be rejected")
	}
	if c.AbortDrain(node) {
		t.Fatal("AbortDrain on a running drain must be refused")
	}
	if poolSnapshot(c)[node] {
		t.Fatal("refused AbortDrain re-admitted the draining node to the pool")
	}

	close(gate)
	err := <-done
	c.Tr.Register(node, src.Handler)
	if err != nil {
		t.Fatalf("first drain failed after the rejected concurrent attempt: %v", err)
	}
	if got := len(c.MDS.StripesOn(node)); got != 0 {
		t.Fatalf("%d stripes still on the drained node", got)
	}
	if c.MDS.Draining(node) {
		t.Fatal("completed drain left the draining mark")
	}
}

// TestDrainStrandedCutoverHardAborts pins the post-rebind failure
// contract: a fence that fails after the stripe's rebind strands the
// cutover, which must surface as ErrStrandedCutover alongside the
// partial result and hard-abort the drain (pool restored, mark
// cleared) — never classify as a resumable cancel, even when the
// operator cancels at the same moment, because the resume's StripesOn
// re-seed could not revisit the stranded stripe.
func TestDrainStrandedCutoverHardAborts(t *testing.T) {
	c, _, _ := buildResumeCluster(t, 20, 1)
	defer c.Close()
	node := c.OSDs[2].ID()
	before := len(c.MDS.StripesOnSorted(node))
	src := c.OSD(node)

	// The second fence fails; the operator's ctx is cancelled at the
	// same instant — the racing-cancel variant of the hazard.
	ctx1, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fences atomic.Int32
	c.Tr.Register(node, func(hctx context.Context, msg *wire.Msg) *wire.Resp {
		if msg.Kind == wire.KEpochUpdate && fences.Add(1) == 2 {
			cancel()
			return &wire.Resp{Err: "injected fence failure"}
		}
		return src.Handler(hctx, msg)
	})

	res, err := c.Drain(ctx1, node)
	c.Tr.Register(node, src.Handler)
	if !errors.Is(err, ErrStrandedCutover) {
		t.Fatalf("post-rebind fence failure returned %v, want ErrStrandedCutover", err)
	}
	if res == nil {
		t.Fatal("stranded cutover returned no partial result")
	}
	for _, mv := range res.Moves {
		if !mv.Done {
			t.Fatalf("partial result contains an incomplete move: %+v", mv)
		}
	}
	// Hard abort, not an interrupted resume: mark cleared, node back in
	// the pool with its unmigrated stripes.
	if c.MDS.Draining(node) {
		t.Fatal("stranded cutover left the drain resumable")
	}
	if !poolSnapshot(c)[node] {
		t.Fatal("stranded cutover did not restore pool membership")
	}
	if rest := len(c.MDS.StripesOn(node)); rest == 0 || rest >= before {
		t.Fatalf("%d of %d stripes on the node after the stranded abort; expected a partial drain", rest, before)
	}
}

// TestSchedulerLedgerSurvivesRebase pins the monotonic lifetime
// ledger: SetRebuildCap zeroes the budget-relative ledger, but an
// in-flight run's spent-byte deltas come from TotalSpentBytes, which
// never rebases — so its capFloor clamp cannot collapse to zero and
// report bandwidth above the cap.
func TestSchedulerLedgerSurvivesRebase(t *testing.T) {
	s := NewRepairScheduler(nil, 1.0)
	base := s.TotalSpentBytes() // the run snapshots its base
	s.charge(100_000)
	s.SetRebuildCap(1.0) // the cap is re-set mid-flight
	s.charge(50_000)
	if d := s.TotalSpentBytes() - base; d != 150_000 {
		t.Fatalf("lifetime delta = %d across a rebase, want 150000", d)
	}
	if got := s.SpentBytes(); got != 50_000 {
		t.Fatalf("budget-relative SpentBytes = %d after rebase, want 50000", got)
	}
	if f := s.capFloor(s.TotalSpentBytes() - base); f != 150*time.Millisecond {
		t.Fatalf("capFloor over the lifetime delta = %v, want 150ms", f)
	}
}

// TestDrainHonorsRebuildCap drives the scheduler's acceptance
// criterion under the race detector: with a cluster rebuild cap set
// and foreground readers hammering the cluster throughout, the drain
// completes, no client operation fails, and the measured rebuild
// bandwidth lands at or under the cap.
func TestDrainHonorsRebuildCap(t *testing.T) {
	c, f, mirror := buildResumeCluster(t, 100, 0)
	defer c.Close()
	const capMBps = 0.05 // far below the uncapped copy rate, so the cap must bite
	c.SetRebuildCap(capMBps)

	node := c.OSDs[2].ID()
	var (
		wg     sync.WaitGroup
		stop   = make(chan struct{})
		opErrs = make(chan error, 4)
	)
	region := len(mirror) / 4
	quiet := mirror[3*region:]
	for r := 0; r < 2; r++ {
		rf := openFile(t, c.NewClient(), f.Name())
		wg.Add(1)
		go func(r int, rf *File) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(400 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				off := rng.Intn(region - 128)
				n := 1 + rng.Intn(128)
				got, _, err := rf.ReadRange(context.Background(), int64(3*region+off), n)
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

	trafficBefore := c.Net.TrafficByClass(sim.ClassDrain)
	res, err := c.Drain(context.Background(), node)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case cerr := <-opErrs:
		t.Fatalf("client operation failed during capped drain: %v", cerr)
	default:
	}

	if res.Bytes == 0 {
		t.Fatal("capped drain moved no bytes; the cap check is vacuous")
	}
	if capBps := capMBps * 1e6; res.Bandwidth > capBps*1.001 {
		t.Fatalf("measured rebuild bandwidth %.0f B/s exceeds the %.0f B/s cap", res.Bandwidth, capBps)
	}
	// The cap bounds *priced* bytes: everything the drain put on the
	// wire (fetches, stores, fences — tagged sim.ClassDrain), not just
	// the payload, stays under cap x makespan.
	priced := c.Net.TrafficByClass(sim.ClassDrain) - trafficBefore
	if pricedBW := float64(priced) / res.VirtualTime.Seconds(); pricedBW > capMBps*1e6*1.001 {
		t.Fatalf("priced drain traffic %.0f B/s exceeds the cap", pricedBW)
	}
	if spent := c.Scheduler().SpentBytes(); spent < res.Bytes {
		t.Fatalf("scheduler charged %d bytes for a drain that moved %d", spent, res.Bytes)
	}
	if got := len(c.MDS.StripesOn(node)); got != 0 {
		t.Fatalf("%d stripes still on the drained node", got)
	}
}

// TestSchedulerRoutesHintsAcrossQueues pins the concurrent-victims fix:
// with two queues registered (two simultaneous repairs), a promotion
// finds its stripe in whichever queue holds it, and FIFO-baseline
// queues are skipped.
func TestSchedulerRoutesHintsAcrossQueues(t *testing.T) {
	s := NewRepairScheduler(nil, 0)
	q1 := newRepairQueue([]StripeRef{{Ino: 1, Stripe: 0}, {Ino: 1, Stripe: 1}})
	q2 := newRepairQueue([]StripeRef{{Ino: 2, Stripe: 0}, {Ino: 2, Stripe: 1}})
	s.register(q1)
	s.register(q2)
	defer s.unregister(q1)
	defer s.unregister(q2)

	if s.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4 across both queues", s.Pending())
	}
	if !s.Promote(2, 1) {
		t.Fatal("promotion did not reach the second queue")
	}
	if q2.promotions() != 1 || q1.promotions() != 0 {
		t.Fatalf("promotions landed on the wrong queue: q1=%d q2=%d", q1.promotions(), q2.promotions())
	}
	if s.Promote(3, 0) {
		t.Fatal("promoting an unknown stripe must fail")
	}

	// A FIFO-baseline queue is invisible to hints.
	q2.noPromote = true
	if s.Promote(2, 0) {
		t.Fatal("promotion reached a NoPromote queue")
	}
}

// TestSchedulerThrottleAccounting pins the token bucket's virtual
// clock: on an idle cluster (no foreground traffic) a capped scheduler
// self-advances, accruing throttle time of about spent/rate, and a
// cancelled context aborts a throttled admission.
func TestSchedulerThrottleAccounting(t *testing.T) {
	const mbps = 1.0
	s := NewRepairScheduler(nil, mbps)
	q := newRepairQueue([]StripeRef{{Ino: 1, Stripe: 0}})
	s.register(q)
	defer s.unregister(q)

	ctx := context.Background()
	if err := s.admit(ctx, q); err != nil {
		t.Fatal(err) // first admission rides the zero debt
	}
	s.charge(500_000) // half a virtual second of budget at 1 MB/s
	if err := s.admit(ctx, q); err != nil {
		t.Fatal(err)
	}
	th := s.Throttled()
	if want := 500 * time.Millisecond; th < want || th > want+50*time.Millisecond {
		t.Fatalf("throttled %v after spending 0.5s of budget, want ~%v", th, want)
	}
	if s.SpentBytes() != 500_000 {
		t.Fatalf("SpentBytes = %d", s.SpentBytes())
	}

	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.admit(cctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("admit under a cancelled ctx returned %v", err)
	}

	// capFloor converts a run's bytes into the cap-imposed makespan.
	if f := s.capFloor(2_000_000); f != 2*time.Second {
		t.Fatalf("capFloor = %v, want 2s", f)
	}
}

// TestSchedulerQueueWeight pins the fairness ranking input: queue depth
// plus a boost per promotion.
func TestSchedulerQueueWeight(t *testing.T) {
	q := newRepairQueue([]StripeRef{{Ino: 1, Stripe: 0}, {Ino: 1, Stripe: 1}, {Ino: 1, Stripe: 2}})
	if w := weight(q); w != 3 {
		t.Fatalf("weight = %d, want 3", w)
	}
	q.promote(1, 2)
	if w := weight(q); w != 3+promotionWeight {
		t.Fatalf("weight after promotion = %d, want %d", w, 3+promotionWeight)
	}
}
