package ecfs

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// TestCompressionEquivalence: the §7 compression extension must not
// change any byte of the final state.
func TestCompressionEquivalence(t *testing.T) {
	ctx := context.Background()
	opts := testOptions("tsue")
	cfg := *opts.Strategy
	cfg.CompressDeltas = true
	opts.Strategy = &cfg
	c := MustNewCluster(opts)
	defer c.Close()
	cli := c.NewClient()
	fileSize := 64 << 10
	f, mirror := writeTestFile(t, c, cli, fileSize, 31)
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 300; i++ {
		off := int64(rng.Intn(fileSize - 512))
		data := make([]byte, 1+rng.Intn(512))
		rng.Read(data)
		if _, err := f.UpdateAt(ctx, off, data, time.Duration(i)*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		copy(mirror[off:], data)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyStripes(f, mirror); err != nil {
		t.Fatal(err)
	}
}

// TestCompressionReducesTraffic: compressible update payloads must shrink
// inter-OSD traffic when the extension is enabled.
func TestCompressionReducesTraffic(t *testing.T) {
	ctx := context.Background()
	traffic := func(compress bool) int64 {
		opts := testOptions("tsue")
		cfg := *opts.Strategy
		cfg.CompressDeltas = compress
		opts.Strategy = &cfg
		c := MustNewCluster(opts)
		defer c.Close()
		cli := c.NewClient()
		fileSize := 64 << 10
		f, _ := writeTestFile(t, c, cli, fileSize, 35)
		payload := bytes.Repeat([]byte("compressible! "), 64) // ~900 B, highly redundant
		rng := rand.New(rand.NewSource(37))
		for i := 0; i < 150; i++ {
			off := int64(rng.Intn(fileSize - len(payload)))
			if _, err := f.UpdateAt(ctx, off, payload, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := c.VerifyStripes(f, nil); err != nil {
			t.Fatal(err)
		}
		return c.OSDTraffic()
	}
	plain := traffic(false)
	compressed := traffic(true)
	if compressed >= plain {
		t.Fatalf("compression did not reduce traffic: %d >= %d", compressed, plain)
	}
	if float64(compressed) > 0.9*float64(plain) {
		t.Fatalf("compression saved too little on redundant deltas: %d vs %d", compressed, plain)
	}
}

// TestDegradedRead: with one OSD down and no recovery yet, reads of its
// blocks must be served by on-the-fly reconstruction from survivors.
func TestDegradedRead(t *testing.T) {
	ctx := context.Background()
	for _, method := range []string{"tsue", "fo"} {
		method := method
		t.Run(method, func(t *testing.T) {
			t.Parallel()
			c := MustNewCluster(testOptions(method))
			defer c.Close()
			cli := c.NewClient()
			fileSize := 48 << 10
			f, mirror := writeTestFile(t, c, cli, fileSize, 41)
			rng := rand.New(rand.NewSource(43))
			for i := 0; i < 100; i++ {
				off := int64(rng.Intn(fileSize - 128))
				data := make([]byte, 1+rng.Intn(128))
				rng.Read(data)
				if _, err := f.UpdateAt(ctx, off, data, 0); err != nil {
					t.Fatal(err)
				}
				copy(mirror[off:], data)
			}
			// Flush so survivors hold the full state, then kill a node.
			if err := c.Flush(context.Background()); err != nil {
				t.Fatal(err)
			}
			loc, _ := c.MDS.Lookup(f.Ino(), 0)
			c.FailOSD(loc.Nodes[1])

			got, _, err := f.ReadRange(ctx, 0, fileSize)
			if err != nil {
				t.Fatalf("degraded read failed: %v", err)
			}
			if !bytes.Equal(got, mirror[:fileSize]) {
				t.Fatal("degraded read returned wrong data")
			}
		})
	}
}

// TestDegradedReadFallbackWave: with M nodes down, one of the first K
// survivor fetches fails and the decode must draw on the holder the
// first wave left out — for an unaligned range inside a lost block.
func TestDegradedReadFallbackWave(t *testing.T) {
	ctx := context.Background()
	c := MustNewCluster(testOptions("fo")) // K=4, M=2
	defer c.Close()
	cli := c.NewClient()
	f, mirror := writeTestFile(t, c, cli, 48<<10, 44)
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	loc, _ := c.MDS.Lookup(f.Ino(), 0)
	c.FailOSD(loc.Nodes[1])
	c.FailOSD(loc.Nodes[2])
	bs := int64(c.Opts.BlockSize)
	for _, r := range []struct{ off, n int64 }{{bs + 5, 333}, {2*bs + 1, bs - 2}, {bs - 7, 2*bs + 9}} {
		got, _, err := f.ReadRange(ctx, r.off, int(r.n))
		if err != nil {
			t.Fatalf("degraded read [%d,+%d): %v", r.off, r.n, err)
		}
		if !bytes.Equal(got, mirror[r.off:r.off+r.n]) {
			t.Fatalf("degraded read [%d,+%d) returned wrong data", r.off, r.n)
		}
	}
	if st := cli.Stats(); st.DegradedReads != 4 {
		t.Fatalf("%d reads served by reconstruction, want 4 (one per lost block part)", st.DegradedReads)
	}
}

func TestDegradedReadTooManyFailures(t *testing.T) {
	ctx := context.Background()
	c := MustNewCluster(testOptions("fo")) // K=4, M=2: three failures is fatal
	defer c.Close()
	cli := c.NewClient()
	f, _ := writeTestFile(t, c, cli, 48<<10, 45)
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	loc, _ := c.MDS.Lookup(f.Ino(), 0)
	c.FailOSD(loc.Nodes[0])
	c.FailOSD(loc.Nodes[1])
	c.FailOSD(loc.Nodes[2])
	if _, _, err := f.ReadRange(ctx, 0, 4096); err == nil {
		t.Fatal("read must fail with more than M nodes down")
	}
}

func TestScrub(t *testing.T) {
	c := MustNewCluster(testOptions("tsue"))
	defer c.Close()
	cli := c.NewClient()
	f1, _ := writeTestFile(t, c, cli, 32<<10, 47)
	ino1 := f1.Ino()
	f2 := openFile(t, cli, "second")
	if _, err := f2.WriteAt(make([]byte, cli.StripeSpan()), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	n, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	want := c.MDS.Stripes(ino1) + c.MDS.Stripes(f2.Ino())
	if n != want {
		t.Fatalf("scrubbed %d stripes, want %d", n, want)
	}
	// Corrupt one byte of a parity block: scrub must catch it.
	loc, _ := c.MDS.Lookup(ino1, 0)
	pNode := c.OSD(loc.Nodes[c.Opts.K])
	pb := wireBlock(ino1, 0, uint8(c.Opts.K))
	snap, _ := pNode.Store().Snapshot(pb)
	snap[0] ^= 0xff
	pNode.Store().WriteFull(sim.ClassOther, pb, snap, nil, true)
	if _, err := c.Scrub(); err == nil {
		t.Fatal("scrub missed a corrupted parity block")
	}
}

// TestCrashRecoveryBattery alternates workload bursts with node failures
// and recoveries, verifying full consistency after each round.
func TestCrashRecoveryBattery(t *testing.T) {
	ctx := context.Background()
	opts := testOptions("tsue")
	c := MustNewCluster(opts)
	defer c.Close()
	cli := c.NewClient()
	fileSize := 64 << 10
	f, mirror := writeTestFile(t, c, cli, fileSize, 51)
	rng := rand.New(rand.NewSource(53))

	for round := 0; round < 3; round++ {
		for i := 0; i < 80; i++ {
			off := int64(rng.Intn(fileSize - 200))
			data := make([]byte, 1+rng.Intn(200))
			rng.Read(data)
			if _, err := f.UpdateAt(ctx, off, data, time.Duration(i)*time.Millisecond); err != nil {
				t.Fatalf("round %d update: %v", round, err)
			}
			copy(mirror[off:], data)
		}
		// Fail a different OSD each round, with pending log state.
		victim := c.OSDs[(round*3+1)%len(c.OSDs)].ID()
		c.FailOSD(victim)
		cfg := *opts.Strategy
		cfg.BlockSize = opts.BlockSize
		repl, err := NewOSD(victim, opts.Device, c.Tr.Caller(victim), "tsue", cfg, opts.Kind)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recover(context.Background(), victim, repl); err != nil {
			t.Fatalf("round %d recover: %v", round, err)
		}
		c.Reinstate(repl)
		got, _, err := f.ReadRange(ctx, 0, fileSize)
		if err != nil {
			t.Fatalf("round %d read: %v", round, err)
		}
		if !bytes.Equal(got, mirror[:fileSize]) {
			t.Fatalf("round %d: content diverged after recovery", round)
		}
		if err := c.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := c.VerifyStripes(f, mirror); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func wireBlock(ino uint64, stripe uint32, idx uint8) wire.BlockID {
	return wire.BlockID{Ino: ino, Stripe: stripe, Idx: idx}
}
