package trace

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/ecfs"
	"repro/internal/erasure"
	"repro/internal/netsim"
	"repro/internal/update"
)

// Generator-statistics test parameters. Every workload generator
// targets the §2.1 fractions exactly (they are its UpdateFrac/SizeDist
// inputs), so for a fixed seed the observed fractions are one
// deterministic draw of statOps Bernoulli trials around the target.
// The binomial standard deviation at p=0.5, n=20000 is ~0.35%, so
// statTol = ±4% is more than ten sigma: the checks hold for any seed
// with overwhelming margin and only fail if a generator change moves
// the target itself. The seeds below are pinned anyway so a failure is
// always reproducible bit-for-bit.
const (
	statOps  = 20000
	statSeed = 1
	statTol  = 0.04
)

func TestGeneratorStatistics(t *testing.T) {
	type target struct {
		name string
		gen  func() *Trace
		// §2.1 targets; a frac4K of -1 means the paper pins no
		// exactly-4-KiB fraction for this workload.
		updateFrac, frac4K, fracLE16K float64
	}
	cases := []target{
		{"ali-cloud", func() *Trace { return AliCloud(1<<30, statOps, statSeed) }, 0.75, 0.46, 0.60},
		{"ten-cloud", func() *Trace { return TenCloud(1<<30, statOps, statSeed) }, 0.69, 0.69, 0.88},
	}
	for _, vol := range MSRVolumes {
		p := msrTable[vol]
		cases = append(cases, target{
			"msr-" + vol,
			func() *Trace { tr, _ := MSR(vol, 1<<28, statOps, statSeed); return tr },
			// MSR per-volume update fraction from the volume table; the
			// size CDF puts 90% of updates at <= 16 KiB (§2.1).
			p.updateFrac, -1, 0.90,
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.gen().Stats()
			if s.Ops != statOps {
				t.Fatalf("ops = %d, want %d", s.Ops, statOps)
			}
			check := func(label string, got, want float64) {
				if want < 0 {
					return
				}
				if got < want-statTol || got > want+statTol {
					t.Errorf("%s = %.3f, want %.2f ± %.2f", label, got, want, statTol)
				}
			}
			check("update fraction", s.UpdateFrac, tc.updateFrac)
			check("4K fraction", s.Frac4K, tc.frac4K)
			check("<=16K fraction", s.FracLE16K, tc.fracLE16K)
		})
	}
}

// TestMSRSizeDistribution pins the remaining §2.1 MSR size claim: 60%
// of updates are *under* 4 KiB (the sub-4K tail the Stats summary does
// not report), within the same documented tolerance.
func TestMSRSizeDistribution(t *testing.T) {
	for _, vol := range MSRVolumes {
		tr, _ := MSR(vol, 1<<28, statOps, statSeed)
		var updates, sub4k int
		for _, op := range tr.Ops {
			if op.Kind != OpUpdate {
				continue
			}
			updates++
			if op.Size < 4<<10 {
				sub4k++
			}
		}
		frac := float64(sub4k) / float64(updates)
		if frac < 0.60-statTol || frac > 0.60+statTol {
			t.Errorf("%s: sub-4K update fraction = %.3f, want 0.60 ± %.2f", vol, frac, statTol)
		}
	}
}

// TestTenCloudStrongerLocality verifies the property that drives TSUE's
// Ten-Cloud advantage: updates concentrate on far fewer distinct 64 KiB
// extents than Ali-Cloud's.
func TestTenCloudStrongerLocality(t *testing.T) {
	distinct := func(tr *Trace) int {
		seen := map[int64]bool{}
		for _, op := range tr.Ops {
			if op.Kind == OpUpdate {
				seen[op.Off>>16] = true
			}
		}
		return len(seen)
	}
	ali := distinct(AliCloud(1<<30, 20000, 3))
	ten := distinct(TenCloud(1<<30, 20000, 3))
	if ten >= ali {
		t.Fatalf("ten-cloud should touch fewer extents: ali=%d ten=%d", ali, ten)
	}
}

func TestMSRVolumes(t *testing.T) {
	for _, vol := range MSRVolumes {
		if _, ok := MSR(vol, 1<<28, 100, 4); !ok {
			t.Fatalf("unknown volume %s", vol)
		}
	}
	if _, ok := MSR("nosuch", 1<<20, 10, 1); ok {
		t.Fatal("unknown volume must report !ok")
	}
}

func TestGenerateBounds(t *testing.T) {
	tr := Generate(Params{Name: "x", FileSize: 1 << 20, Ops: 5000, UpdateFrac: 1,
		SizeDist: []SizePoint{{1, 256 << 10}}, ZipfS: 1.3, ZipfHot: 0.5, Seed: 9})
	for i, op := range tr.Ops {
		if op.Off < 0 || op.Off+int64(op.Size) > tr.FileSize {
			t.Fatalf("op %d out of bounds: off=%d size=%d", i, op.Off, op.Size)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := AliCloud(1<<26, 500, 42)
	b := AliCloud(1<<26, 500, 42)
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatal("same seed must give identical traces")
		}
	}
	c := AliCloud(1<<26, 500, 43)
	same := true
	for i := range a.Ops {
		if a.Ops[i] != c.Ops[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestTimestampsMonotonic(t *testing.T) {
	tr := AliCloud(1<<26, 1000, 5)
	for i := 1; i < len(tr.Ops); i++ {
		if tr.Ops[i].At <= tr.Ops[i-1].At {
			t.Fatal("timestamps must be strictly increasing")
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := TenCloud(1<<24, 300, 6)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.FileSize != tr.FileSize || len(got.Ops) != len(tr.Ops) {
		t.Fatalf("header mismatch: %q %d %d", got.Name, got.FileSize, len(got.Ops))
	}
	for i := range tr.Ops {
		if tr.Ops[i] != got.Ops[i] {
			t.Fatalf("op %d mismatch: %+v != %+v", i, tr.Ops[i], got.Ops[i])
		}
	}
}

// TestCSVErrors enumerates malformed-line shapes: each must return an
// error (never panic, never be silently dropped).
func TestCSVErrors(t *testing.T) {
	cases := []struct{ name, input string }{
		{"short line", "U,1,2\n"},
		{"long line", "U,1,2,3,4\n"},
		{"bad kind", "X,1,2,3\n"},
		{"bad offset", "U,a,2,3\n"},
		{"bad size", "U,1,b,3\n"},
		{"bad timestamp", "U,1,2,c\n"},
		{"negative offset", "U,-1,2,3\n"},
		{"zero size", "U,1,0,3\n"},
		{"negative size", "U,1,-2,3\n"},
		{"negative timestamp", "U,1,2,-3\n"},
		{"offset overflow", "U,99999999999999999999,2,3\n"},
		{"negative file size", "# file_size=-1\n"},
		{"bad file size", "# file_size=huge\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadCSV(bytes.NewBufferString(tc.input)); err == nil {
				t.Fatalf("input %q accepted, want error", tc.input)
			}
		})
	}
}

func testClusterOptions(method string) ecfs.Options {
	cfg := update.DefaultConfig()
	cfg.UnitSize = 32 << 10
	cfg.MaxUnits = 4
	cfg.Pools = 2
	cfg.Workers = 2
	return ecfs.Options{
		NumOSDs: 8, K: 4, M: 2, BlockSize: 16 << 10, Method: method,
		Device: device.ChameleonSSD(), Net: netsim.Ethernet25G(),
		Kind: erasure.Vandermonde, Strategy: &cfg,
	}
}

func TestReplayAgainstCluster(t *testing.T) {
	c := ecfs.MustNewCluster(testClusterOptions("tsue"))
	defer c.Close()
	r := NewReplayer(c, 4)
	fileSize := int64(512 << 10)
	f, err := r.Prepare(context.Background(), "vol", fileSize)
	if err != nil {
		t.Fatal(err)
	}
	tr := TenCloud(fileSize, 800, 7)
	// Clamp sizes to the small test volume.
	for i := range tr.Ops {
		if tr.Ops[i].Size > 8<<10 {
			tr.Ops[i].Size = 8 << 10
		}
	}
	res, err := r.Run(context.Background(), tr, f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d replay errors", res.Errors)
	}
	if res.Ops != 800 || res.Updates == 0 || res.Reads == 0 {
		t.Fatalf("result wrong: %+v", res)
	}
	if res.AvgLatency <= 0 {
		t.Fatal("no latency recorded")
	}
	iops := r.Throughput(res)
	if iops <= 0 {
		t.Fatal("no throughput derived")
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyStripes(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReplayLatencySamples(t *testing.T) {
	c := ecfs.MustNewCluster(testClusterOptions("fo"))
	defer c.Close()
	r := NewReplayer(c, 2)
	f, err := r.Prepare(context.Background(), "vol", 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	tr := AliCloud(256<<10, 100, 8)
	for i := range tr.Ops {
		if tr.Ops[i].Size > 4<<10 {
			tr.Ops[i].Size = 4 << 10
		}
	}
	if _, err := r.Run(context.Background(), tr, f); err != nil {
		t.Fatal(err)
	}
	if r.Latency.Count() != 100 {
		t.Fatalf("latency samples = %d", r.Latency.Count())
	}
}

func TestOpKindString(t *testing.T) {
	if OpUpdate.String() != "U" || OpRead.String() != "R" {
		t.Fatal("op kind strings wrong")
	}
}

func TestStatsDuration(t *testing.T) {
	tr := &Trace{Ops: []Op{{At: time.Second}, {At: 3 * time.Second}}}
	if tr.Stats().Duration != 3*time.Second {
		t.Fatal("duration wrong")
	}
}
