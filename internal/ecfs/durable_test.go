package ecfs

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/erasure"
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
	c.AddOSD(repl)
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
// when journaling the request's placement epoch is.
func TestCrashedEngineRefusesWrites(t *testing.T) {
	cfg := update.DefaultConfig()
	cfg.BlockSize = 4 << 10
	o, err := NewOSDAt(1, device.ChameleonSSD(), nil, "fo", cfg, erasure.Vandermonde, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	o.Engine().Crash()
	for _, loc := range []wire.StripeLoc{{}, {Nodes: []wire.NodeID{1, 2, 3}, Epoch: 1}} {
		resp := o.Handler(context.Background(), &wire.Msg{
			Kind: wire.KWriteBlock, Block: wire.BlockID{Ino: 1}, Loc: loc, K: 2, M: 1,
			Data: make([]byte, cfg.BlockSize),
		})
		if resp.OK() {
			t.Fatalf("KWriteBlock (placement %+v) on a crashed engine was acknowledged", loc)
		}
	}
}
