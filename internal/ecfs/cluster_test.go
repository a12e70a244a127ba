package ecfs

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/erasure"
	"repro/internal/netsim"
	"repro/internal/update"
	"repro/internal/wire"
)

// testOptions returns a small, fast cluster configuration with log units
// small enough that pools genuinely seal and recycle mid-test.
func testOptions(method string) Options {
	cfg := update.DefaultConfig()
	cfg.UnitSize = 8 << 10
	cfg.MaxUnits = 4
	cfg.Pools = 2
	cfg.Workers = 2
	cfg.RecycleThreshold = 32 << 10
	cfg.ReservedSpace = 2 << 10
	cfg.CollectorUnitSize = 8 << 10
	return Options{
		NumOSDs:   8,
		K:         4,
		M:         2,
		BlockSize: 4 << 10,
		Method:    method,
		Device:    device.ChameleonSSD(),
		Net:       netsim.Ethernet25G(),
		Kind:      erasure.Vandermonde,
		Strategy:  &cfg,
	}
}

// openFile opens name on cli under a background context, failing the
// test on error.
func openFile(t *testing.T, cli *Client, name string) *File {
	t.Helper()
	f, err := cli.Open(context.Background(), name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// writeTestFile writes size random bytes to "f1" through a handle on cli
// and returns the handle plus the file image padded to full stripes.
func writeTestFile(t *testing.T, c *Cluster, cli *Client, size int, seed int64) (*File, []byte) {
	t.Helper()
	f := openFile(t, cli, "f1")
	mirror := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(mirror)
	if _, err := f.WriteAt(mirror, 0); err != nil {
		t.Fatal(err)
	}
	// Pad the mirror to full stripes (WriteAt zero-pads).
	span := cli.StripeSpan()
	padded := make([]byte, (size+span-1)/span*span)
	copy(padded, mirror)
	return f, padded
}

func TestWriteVerify(t *testing.T) {
	c := MustNewCluster(testOptions("tsue"))
	defer c.Close()
	cli := c.NewClient()
	f, mirror := writeTestFile(t, c, cli, 64<<10, 1)
	if err := c.VerifyStripes(f, mirror); err != nil {
		t.Fatal(err)
	}
}

func TestReadBack(t *testing.T) {
	ctx := context.Background()
	c := MustNewCluster(testOptions("tsue"))
	defer c.Close()
	cli := c.NewClient()
	f, mirror := writeTestFile(t, c, cli, 48<<10, 2)
	got, lat, err := f.ReadRange(ctx, 1000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mirror[1000:6000]) {
		t.Fatal("read-back mismatch")
	}
	if lat < 0 {
		t.Fatal("negative latency")
	}
}

// TestUpdateEquivalenceAllMethods is the central correctness check: after
// an arbitrary update workload and a full flush, every method must leave
// identical data blocks AND parity consistent with a re-encode — i.e. all
// seven update paths compute the same mathematics (Eq. 1-5).
func TestUpdateEquivalenceAllMethods(t *testing.T) {
	ctx := context.Background()
	for _, method := range update.AllMethods {
		method := method
		t.Run(method, func(t *testing.T) {
			t.Parallel()
			c := MustNewCluster(testOptions(method))
			defer c.Close()
			cli := c.NewClient()
			fileSize := 96 << 10 // 6 stripes of 16 KiB
			f, mirror := writeTestFile(t, c, cli, fileSize, 42)

			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 400; i++ {
				off := int64(rng.Intn(fileSize - 512))
				n := 1 + rng.Intn(512)
				data := make([]byte, n)
				rng.Read(data)
				if _, err := f.UpdateAt(ctx, off, data, time.Duration(i)*time.Millisecond); err != nil {
					t.Fatalf("update %d: %v", i, err)
				}
				copy(mirror[off:], data)
			}
			if err := c.Flush(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := c.VerifyStripes(f, mirror); err != nil {
				t.Fatalf("method %s: %v", method, err)
			}
		})
	}
}

// TestReadYourWrites: reads must observe updates immediately, before any
// flush, under every method.
func TestReadYourWrites(t *testing.T) {
	ctx := context.Background()
	for _, method := range update.AllMethods {
		method := method
		t.Run(method, func(t *testing.T) {
			t.Parallel()
			c := MustNewCluster(testOptions(method))
			defer c.Close()
			cli := c.NewClient()
			f, _ := writeTestFile(t, c, cli, 32<<10, 3)
			payload := []byte("fresh-update-payload")
			if _, err := f.UpdateAt(ctx, 777, payload, 0); err != nil {
				t.Fatal(err)
			}
			got, _, err := f.ReadRange(ctx, 777, len(payload))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("%s: stale read: %q", method, got)
			}
		})
	}
}

// TestUpdateBeforeWrite: an update may reach a stripe before any full
// write (UpdateAt binds it on first touch). Every method accepts it, and
// the bytes read back once the logs drain.
func TestUpdateBeforeWrite(t *testing.T) {
	ctx := context.Background()
	for _, method := range update.AllMethods {
		method := method
		t.Run(method, func(t *testing.T) {
			t.Parallel()
			c := MustNewCluster(testOptions(method))
			defer c.Close()
			f := openFile(t, c.NewClient(), "unwritten")
			payload := []byte("update-before-write")
			if _, err := f.UpdateAt(ctx, 333, payload, 0); err != nil {
				t.Fatalf("update of an unwritten stripe: %v", err)
			}
			if err := c.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			got, _, err := f.ReadRange(ctx, 333, len(payload))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("read %q", got)
			}
		})
	}
}

func TestConcurrentClients(t *testing.T) {
	ctx := context.Background()
	c := MustNewCluster(testOptions("tsue"))
	defer c.Close()
	setup := c.NewClient()
	fileSize := 64 << 10
	f, mirror := writeTestFile(t, c, setup, fileSize, 5)

	// Partition the file: each client owns a disjoint region, so the
	// final state is deterministic.
	var wg sync.WaitGroup
	nClients := 8
	region := fileSize / nClients
	var mu sync.Mutex
	for ci := 0; ci < nClients; ci++ {
		cf := openFile(t, c.NewClient(), f.Name())
		wg.Add(1)
		go func(ci int, cf *File) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + ci)))
			base := int64(ci * region)
			for i := 0; i < 60; i++ {
				off := base + int64(rng.Intn(region-64))
				data := make([]byte, 1+rng.Intn(64))
				rng.Read(data)
				if _, err := cf.UpdateAt(ctx, off, data, time.Duration(i)*time.Millisecond); err != nil {
					t.Errorf("client %d: %v", ci, err)
					return
				}
				mu.Lock()
				copy(mirror[off:], data)
				mu.Unlock()
			}
		}(ci, cf)
	}
	wg.Wait()
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyStripes(f, mirror); err != nil {
		t.Fatal(err)
	}
}

func TestTSUEReadCacheHit(t *testing.T) {
	ctx := context.Background()
	c := MustNewCluster(testOptions("tsue"))
	defer c.Close()
	cli := c.NewClient()
	f, _ := writeTestFile(t, c, cli, 32<<10, 9)
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = 0xAB
	}
	if _, err := f.UpdateAt(ctx, 512, payload, 0); err != nil {
		t.Fatal(err)
	}
	// A read fully covered by the data log must cost zero device time.
	_, lat, err := f.ReadRange(ctx, 512, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Latency includes only network, which the client-side call adds on
	// top of resp.Cost; resp.Cost itself must show zero device read.
	// Reading uncached data costs the random-read latency (~80us).
	_, lat2, err := f.ReadRange(ctx, 20<<10, 256)
	if err != nil {
		t.Fatal(err)
	}
	if lat >= lat2 {
		t.Fatalf("cache hit (%v) should be cheaper than miss (%v)", lat, lat2)
	}
}

func TestRecoveryAfterUpdates(t *testing.T) {
	ctx := context.Background()
	for _, method := range []string{"tsue", "pl", "fo"} {
		method := method
		t.Run(method, func(t *testing.T) {
			t.Parallel()
			c := MustNewCluster(testOptions(method))
			defer c.Close()
			cli := c.NewClient()
			fileSize := 64 << 10
			f, mirror := writeTestFile(t, c, cli, fileSize, 11)
			rng := rand.New(rand.NewSource(13))
			for i := 0; i < 200; i++ {
				off := int64(rng.Intn(fileSize - 256))
				data := make([]byte, 1+rng.Intn(256))
				rng.Read(data)
				if _, err := f.UpdateAt(ctx, off, data, time.Duration(i)*time.Millisecond); err != nil {
					t.Fatal(err)
				}
				copy(mirror[off:], data)
			}

			// Fail one OSD and rebuild its blocks onto a replacement
			// registered under the same id.
			victim := c.OSDs[2]
			c.FailOSD(victim.ID())
			repl, err := NewOSD(victim.ID(), c.Opts.Device, c.Tr.Caller(victim.ID()), method, func() update.Config {
				cfg := *c.Opts.Strategy
				cfg.BlockSize = c.Opts.BlockSize
				return cfg
			}(), c.Opts.Kind)
			if err != nil {
				t.Fatal(err)
			}
			defer repl.Close()

			res, err := c.Recover(context.Background(), victim.ID(), repl)
			if err != nil {
				t.Fatal(err)
			}
			if res.Blocks == 0 {
				t.Fatal("nothing recovered")
			}
			if res.Bandwidth <= 0 {
				t.Fatal("no recovery bandwidth measured")
			}
			// Every block the victim hosted must exist on the
			// replacement. (Its content is the *post-drain* state, which
			// can legitimately be newer than the dead node's snapshot.)
			for _, id := range victim.Store().Blocks() {
				if _, ok := repl.Store().Snapshot(id); !ok {
					t.Fatalf("block %v not recovered", id)
				}
			}
			// Reinstate the replacement under the victim's id: reads
			// must match the mirror and stripes must verify end to end.
			c.Reinstate(repl)
			got, _, err := f.ReadRange(ctx, 0, fileSize)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, mirror[:fileSize]) {
				t.Fatal("post-recovery read mismatch")
			}
			if err := c.VerifyStripes(f, mirror); err != nil {
				t.Fatalf("post-recovery stripe verify: %v", err)
			}
		})
	}
}

func TestTSUEDeltaCopyPromotion(t *testing.T) {
	ctx := context.Background()
	// Fail the OSD hosting a stripe's first parity block while deltas
	// are still buffered in its DeltaLog: the copies at the second
	// parity OSD must be promoted so parity stays consistent.
	opts := testOptions("tsue")
	// Huge units: nothing recycles on its own, so deltas sit in the
	// DataLog; we drain the data logs manually to push them into the
	// DeltaLog layer, then fail the DeltaLog owner.
	cfg := *opts.Strategy
	cfg.UnitSize = 16 << 20
	opts.Strategy = &cfg
	c := MustNewCluster(opts)
	defer c.Close()
	cli := c.NewClient()
	fileSize := 16 << 10 // one stripe
	f, mirror := writeTestFile(t, c, cli, fileSize, 17)
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 50; i++ {
		off := int64(rng.Intn(fileSize - 128))
		data := make([]byte, 1+rng.Intn(128))
		rng.Read(data)
		if _, err := f.UpdateAt(ctx, off, data, 0); err != nil {
			t.Fatal(err)
		}
		copy(mirror[off:], data)
	}
	// Push DataLogs into DeltaLogs only (phase 1).
	for _, o := range c.Alive() {
		if err := o.Strategy().Drain(context.Background(), 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Fail the first parity OSD of stripe 0 (the DeltaLog primary).
	loc, err := c.MDS.Lookup(f.Ino(), 0)
	if err != nil {
		t.Fatal(err)
	}
	parity1 := loc.Nodes[c.Opts.K]
	c.FailOSD(parity1)

	repl, err := NewOSD(parity1, c.Opts.Device, c.Tr.Caller(parity1), "tsue", cfg, c.Opts.Kind)
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()
	if _, err := c.Recover(context.Background(), parity1, repl); err != nil {
		t.Fatal(err)
	}
	c.Reinstate(repl)
	if err := c.VerifyStripes(f, mirror); err != nil {
		t.Fatal(err)
	}
}

func TestMDSPlacement(t *testing.T) {
	ids := []wire.NodeID{1, 2, 3, 4, 5, 6, 7, 8}
	m, err := NewMDS(ids, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ino, _ := m.Create("f")
	if again, _ := m.Create("f"); ino != again {
		t.Fatal("create must be idempotent")
	}
	loc, err := m.Lookup(ino, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(loc.Nodes) != 6 {
		t.Fatalf("placement has %d nodes", len(loc.Nodes))
	}
	seen := map[wire.NodeID]bool{}
	for _, n := range loc.Nodes {
		if seen[n] {
			t.Fatal("placement reuses a node")
		}
		seen[n] = true
	}
	// Deterministic.
	loc2, _ := m.Lookup(ino, 0)
	for i := range loc.Nodes {
		if loc.Nodes[i] != loc2.Nodes[i] {
			t.Fatal("placement not stable")
		}
	}
	if _, err := m.Lookup(999, 0); err == nil {
		t.Fatal("unknown ino must fail")
	}
}

func TestMDSValidation(t *testing.T) {
	if _, err := NewMDS([]wire.NodeID{1, 2}, 4, 2); err == nil {
		t.Fatal("too few OSDs must fail")
	}
	if _, err := NewMDS([]wire.NodeID{1, 2, 3}, 0, 2); err == nil {
		t.Fatal("K=0 must fail")
	}
}

func TestMDSLiveness(t *testing.T) {
	m, _ := NewMDS([]wire.NodeID{1, 2, 3, 4, 5, 6}, 4, 2)
	now := time.Now()
	m.Heartbeat(3, now)
	if got, ok := m.LastHeartbeat(3); !ok || !got.Equal(now) {
		t.Fatal("heartbeat lost")
	}
	m.MarkDead(5)
	dead := m.DeadNodes()
	if len(dead) != 1 || dead[0] != 5 {
		t.Fatalf("dead = %v", dead)
	}
	m.Heartbeat(5, now) // resurrection clears the flag
	if len(m.DeadNodes()) != 0 {
		t.Fatal("heartbeat must clear dead flag")
	}
}

func TestClientSplitSpansBlocks(t *testing.T) {
	ctx := context.Background()
	c := MustNewCluster(testOptions("fo"))
	defer c.Close()
	cli := c.NewClient()
	f, mirror := writeTestFile(t, c, cli, 64<<10, 21)
	// Update crossing a block boundary and a stripe boundary.
	span := cli.StripeSpan()
	off := int64(span - 1000)
	data := make([]byte, 3000)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := f.UpdateAt(ctx, off, data, 0); err != nil {
		t.Fatal(err)
	}
	copy(mirror[off:], data)
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyStripes(f, mirror); err != nil {
		t.Fatal(err)
	}
}

func TestClusterValidation(t *testing.T) {
	opts := testOptions("tsue")
	opts.NumOSDs = 3 // < K+M
	if _, err := NewCluster(opts); err == nil {
		t.Fatal("too few OSDs must fail")
	}
	opts = testOptions("nosuch")
	if _, err := NewCluster(opts); err == nil {
		t.Fatal("unknown method must fail")
	}
}

func TestHeartbeatRPC(t *testing.T) {
	c := MustNewCluster(testOptions("tsue"))
	defer c.Close()
	if err := c.OSDs[0].Heartbeat(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.MDS.LastHeartbeat(c.OSDs[0].ID()); !ok {
		t.Fatal("MDS did not record heartbeat")
	}
}

func TestDeadListRoundTrip(t *testing.T) {
	in := []wire.NodeID{1, 70000, 5}
	out := decodeDeadList(encodeDeadList(in))
	if len(out) != 3 || out[0] != 1 || out[1] != 70000 || out[2] != 5 {
		t.Fatalf("roundtrip = %v", out)
	}
	if len(decodeDeadList(nil)) != 0 {
		t.Fatal("empty list must decode empty")
	}
}
