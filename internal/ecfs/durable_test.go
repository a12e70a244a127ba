package ecfs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/erasure"
	"repro/internal/sim"
	"repro/internal/update"
	"repro/internal/wire"
)

// durableOptions is testOptions backed by an on-disk storage engine.
func durableOptions(t *testing.T, method string) Options {
	t.Helper()
	opts := testOptions(method)
	opts.DataDir = t.TempDir()
	return opts
}

// applyUpdates issues n small random in-place updates through the
// handle and mirrors them locally.
func applyUpdates(t *testing.T, f *File, mirror []byte, n int, seed int64) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		off := rng.Intn(len(mirror) - 256)
		buf := make([]byte, 64+rng.Intn(192))
		rng.Read(buf)
		if _, err := f.UpdateAt(ctx, int64(off), buf, time.Duration(i+1)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		copy(mirror[off:], buf)
	}
}

// TestDurableWriteVerify checks the durable engine is a drop-in for the
// in-memory store on the normal data path.
func TestDurableWriteVerify(t *testing.T) {
	c := MustNewCluster(durableOptions(t, "tsue"))
	defer c.Close()
	cli := c.NewClient()
	f, mirror := writeTestFile(t, c, cli, 64<<10, 11)
	applyUpdates(t, f, mirror, 16, 12)
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyStripes(f, mirror); err != nil {
		t.Fatal(err)
	}
}

// TestKillRestartQuiesced crashes a durable OSD with acknowledged
// updates still sitting in its log pools, restarts it from the same
// directory, and checks (a) nothing needed a rebuild — the outage
// touched no stripe — and (b) the replayed log records drain to a
// parity-consistent, byte-identical file.
func TestKillRestartQuiesced(t *testing.T) {
	c := MustNewCluster(durableOptions(t, "tsue"))
	defer c.Close()
	ctx := context.Background()
	cli := c.NewClient()
	f, mirror := writeTestFile(t, c, cli, 64<<10, 21)
	// No Flush: the updates' effects live only in (persisted) logs when
	// the crash hits.
	applyUpdates(t, f, mirror, 24, 22)

	victim := c.OSDs[0].id
	c.CrashOSD(victim)
	_, res, err := c.RestartOSD(ctx, victim)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if res.Rebuilt != 0 {
		t.Fatalf("quiesced outage rebuilt %d stripes, want 0 (kept %d, dropped %d)", res.Rebuilt, res.Kept, res.Dropped)
	}
	if res.Kept == 0 {
		t.Fatal("restarted node kept no stripes; resilver saw no local state")
	}
	if res.Dropped != 0 {
		t.Fatalf("dropped %d blocks, want 0", res.Dropped)
	}

	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyStripes(f, mirror); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Scrub(); err != nil {
		t.Fatal(err)
	}
}

// TestKillRestartEveryMethod crash-restarts three durable OSDs in turn,
// with acknowledged updates still in their logs, under every update
// method. Every method that keeps a log must replay it, so the file
// reads back byte-identical and every stripe's parity is consistent.
// PLR and PARIX keep logs that cannot be persisted, so a durable OSD
// refuses them at start.
func TestKillRestartEveryMethod(t *testing.T) {
	for _, method := range update.AllMethods {
		t.Run(method, func(t *testing.T) {
			c, err := NewCluster(durableOptions(t, method))
			if method == "plr" || method == "parix" {
				if err == nil {
					c.Close()
					t.Fatalf("durable %s cluster started; want it refused", method)
				}
				if !strings.Contains(err.Error(), method) {
					t.Fatalf("refusal %q does not name %s", err, method)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ctx := context.Background()
			cli := c.NewClient()
			f, mirror := writeTestFile(t, c, cli, 64<<10, 61)
			applyUpdates(t, f, mirror, 24, 62)
			for _, o := range c.OSDs[:3] {
				id := o.id
				c.CrashOSD(id)
				if _, _, err := c.RestartOSD(ctx, id); err != nil {
					t.Fatalf("restart osd %d: %v", id, err)
				}
			}
			if err := c.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if err := c.VerifyStripes(f, mirror); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Scrub(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKillRestartStaleRebuild bumps placement epochs while a durable
// OSD is down (a concurrent node failure is repaired and rebound), so
// on restart the node's overlapping stripes are stale and must be
// rebuilt — but only those.
func TestKillRestartStaleRebuild(t *testing.T) {
	c := MustNewCluster(durableOptions(t, "tsue"))
	defer c.Close()
	ctx := context.Background()
	cli := c.NewClient()
	f, mirror := writeTestFile(t, c, cli, 64<<10, 31)
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	sleeper := c.OSDs[0].id
	c.CrashOSD(sleeper)

	// A second node dies for real while the first sleeps; its stripes
	// are rebound onto a fresh replacement, bumping their epochs.
	casualty := c.OSDs[1].id
	c.FailOSD(casualty)
	repl, err := c.SpawnOSD(c.MaxNodeID() + 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Reinstate(repl)
	if _, err := c.Recover(ctx, casualty, repl); err != nil {
		t.Fatalf("recover: %v", err)
	}

	_, res, err := c.RestartOSD(ctx, sleeper)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if res.Rebuilt == 0 {
		t.Fatal("epoch-bumped stripes were not rebuilt on restart")
	}

	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyStripes(f, mirror); err != nil {
		t.Fatal(err)
	}
}

// TestResilverServesNothingBeforeRebuild: a restarting node must not
// answer reads until its stale stripes are rebuilt. Were it reachable
// during the rebuild, a read at the new epoch would be served the stale
// copy, and would teach the node the new placement so that a stale list
// taken after it keeps the stale stripe. Each survivor's handler probes
// the restarting node with such reads when the rebuild first fetches
// from it; every probe must be refused.
func TestResilverServesNothingBeforeRebuild(t *testing.T) {
	c := MustNewCluster(durableOptions(t, "tsue"))
	defer c.Close()
	ctx := context.Background()
	cli := c.NewClient()
	f, mirror := writeTestFile(t, c, cli, 64<<10, 61)
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	sleeper := c.OSDs[0].id
	c.CrashOSD(sleeper)
	casualty := c.OSDs[1].id
	c.FailOSD(casualty)
	repl, err := c.SpawnOSD(c.MaxNodeID() + 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Reinstate(repl)
	if _, err := c.Recover(ctx, casualty, repl); err != nil {
		t.Fatalf("recover: %v", err)
	}

	refs := c.MDS.StripesOnSorted(sleeper)
	probe := c.Tr.Caller(wire.ClientIDBase)
	var (
		mu     sync.Mutex
		probes int
		served []string
	)
	down := c.deadSnapshot()
	for _, o := range c.OSDs {
		if down[o.id] {
			continue
		}
		c.Tr.Register(o.id, func(ctx context.Context, msg *wire.Msg) *wire.Resp {
			if msg.Kind == wire.KBlockFetch && msg.Class == sim.ClassRebuild {
				for _, ref := range refs {
					resp, err := probe.Call(ctx, sleeper, &wire.Msg{
						Kind: wire.KRead, Block: wire.BlockID{Ino: ref.Ino, Stripe: ref.Stripe, Idx: ref.Idx},
						Size: 16, Loc: ref.Loc, K: uint8(c.Opts.K), M: uint8(c.Opts.M),
					})
					mu.Lock()
					probes++
					if err == nil && resp.OK() {
						served = append(served, fmt.Sprintf("%d/%d", ref.Ino, ref.Stripe))
					}
					mu.Unlock()
					if err == nil {
						resp.Release()
					}
				}
			}
			return o.Handler(ctx, msg)
		})
	}
	_, res, err := c.RestartOSD(ctx, sleeper)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if probes == 0 {
		t.Fatal("the rebuild fetched nothing: no read reached the node before it was rebuilt")
	}
	if len(served) > 0 {
		t.Fatalf("the node served reads of stripes %v before its rebuild finished", served)
	}
	if res.Rebuilt == 0 || res.Kept+res.Rebuilt != len(refs) {
		t.Fatalf("kept %d, rebuilt %d of %d stripes", res.Kept, res.Rebuilt, len(refs))
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyStripes(f, mirror); err != nil {
		t.Fatal(err)
	}
}

// TestKillRestartReplacementKeepsPendingDeltas: a recovery replacement
// that becomes stripe 0's first parity OSD takes DataLog deltas into its
// DeltaLog, then crash-restarts before recycling them. The replayed
// deltas must still reach the parity logs, so the replacement must have
// journaled the stripe's whole placement, geometry included.
func TestKillRestartReplacementKeepsPendingDeltas(t *testing.T) {
	c := MustNewCluster(durableOptions(t, "tsue"))
	defer c.Close()
	ctx := context.Background()
	cli := c.NewClient()
	f, mirror := writeTestFile(t, c, cli, 64<<10, 51)
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	loc, _ := c.MDS.PlacementOf(f.Ino(), 0)
	victim := loc.Nodes[c.Opts.K]
	c.FailOSD(victim)
	repl, err := c.SpawnOSD(c.MaxNodeID() + 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Reinstate(repl)
	if _, err := c.Recover(ctx, victim, repl); err != nil {
		t.Fatalf("recover: %v", err)
	}

	// Recycle the DataLogs only: the deltas now wait in the
	// replacement's DeltaLog.
	applyUpdates(t, f, mirror, 24, 52)
	for _, o := range c.Alive() {
		resp, err := c.Tr.Caller(wire.MDSNode).Call(ctx, o.id, &wire.Msg{Kind: wire.KDrainLogs, Flag: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Error(); err != nil {
			t.Fatal(err)
		}
	}

	c.CrashOSD(repl.id)
	if _, _, err := c.RestartOSD(ctx, repl.id); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyStripes(f, mirror); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Scrub(); err != nil {
		t.Fatal(err)
	}
}

// TestResilverReportsEveryLostStripe: a restarted OSD whose stale
// stripes cannot be rebuilt reports every one of them in the
// DataLossError, not just the first.
func TestResilverReportsEveryLostStripe(t *testing.T) {
	c := MustNewCluster(durableOptions(t, "tsue"))
	defer c.Close()
	ctx := context.Background()
	cli := c.NewClient()
	f, _ := writeTestFile(t, c, cli, 2*cli.StripeSpan(), 41)
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// The sleeper and the drained peer both hold both stripes, so the
	// drain bumps both of the sleeper's epochs while it is down.
	loc0, _ := c.MDS.PlacementOf(f.Ino(), 0)
	loc1, _ := c.MDS.PlacementOf(f.Ino(), 1)
	var both []wire.NodeID
	for _, n := range loc0.Nodes {
		if slices.Contains(loc1.Nodes, n) {
			both = append(both, n)
		}
	}
	sleeper, peer := both[0], both[1]
	c.CrashOSD(sleeper)
	if _, err := c.Drain(ctx, peer); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Fail M+1 of the other holders both stripes still share: neither
	// stripe keeps K sources besides the sleeper's stale copy.
	loc0, _ = c.MDS.PlacementOf(f.Ino(), 0)
	loc1, _ = c.MDS.PlacementOf(f.Ino(), 1)
	var failed []wire.NodeID
	for _, n := range loc0.Nodes {
		if n != sleeper && slices.Contains(loc1.Nodes, n) && len(failed) <= c.Opts.M {
			failed = append(failed, n)
		}
	}
	if len(failed) <= c.Opts.M {
		t.Fatalf("stripes share only %v besides the sleeper", failed)
	}
	for _, n := range failed {
		c.FailOSD(n)
	}

	_, res, err := c.RestartOSD(ctx, sleeper)
	var loss *DataLossError
	if !errors.As(err, &loss) {
		t.Fatalf("restart: err = %v, want a *DataLossError", err)
	}
	if loss.Stripes != 2 {
		t.Fatalf("DataLossError.Stripes = %d, want 2 (%v)", loss.Stripes, loss)
	}
	if res.Rebuilt != 0 {
		t.Fatalf("Rebuilt = %d, want 0", res.Rebuilt)
	}
}

// TestCrashedEngineRefusesWrites: once a durable OSD's engine stops
// persisting, a full-block write is answered with an error instead of
// being acknowledged — both when the block write itself is refused and
// when journaling the request's placement epoch is. An epoch fence that
// cannot be journaled is refused too, and the old epoch stays in force.
func TestCrashedEngineRefusesWrites(t *testing.T) {
	cfg := update.DefaultConfig()
	cfg.BlockSize = 4 << 10
	o, err := NewOSDAt(1, device.ChameleonSSD(), nil, "fo", cfg, erasure.Vandermonde, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	ctx := context.Background()
	nodes := []wire.NodeID{1, 2, 3}
	if resp := o.Handler(ctx, &wire.Msg{Kind: wire.KEpochUpdate, Block: wire.BlockID{Ino: 1}, Loc: wire.StripeLoc{Nodes: nodes, Epoch: 1}, K: 2, M: 1}); !resp.OK() {
		t.Fatalf("epoch 1 fence: %s", resp.Err)
	}
	o.Engine().Crash()
	for _, loc := range []wire.StripeLoc{{}, {Nodes: nodes, Epoch: 2}} {
		resp := o.Handler(ctx, &wire.Msg{
			Kind: wire.KWriteBlock, Block: wire.BlockID{Ino: 1}, Loc: loc, K: 2, M: 1,
			Data: make([]byte, cfg.BlockSize),
		})
		if resp.OK() {
			t.Fatalf("KWriteBlock (placement %+v) on a crashed engine was acknowledged", loc)
		}
	}
	resp := o.Handler(ctx, &wire.Msg{Kind: wire.KEpochUpdate, Block: wire.BlockID{Ino: 1}, Loc: wire.StripeLoc{Nodes: nodes, Epoch: 2}, K: 2, M: 1})
	if resp.OK() {
		t.Fatal("epoch 2 fence on a crashed engine was acknowledged")
	}
	if p, _ := o.Placement(wire.BlockID{Ino: 1}); p.Loc.Epoch != 1 {
		t.Fatalf("epoch after the refused fence = %d, want 1", p.Loc.Epoch)
	}
	if resp := o.Handler(ctx, &wire.Msg{Kind: wire.KRead, Block: wire.BlockID{Ino: 1}, Size: 16, Loc: wire.StripeLoc{Nodes: nodes, Epoch: 1}}); resp.IsStale() {
		t.Fatal("a request at the old epoch was rejected as stale")
	}
}
