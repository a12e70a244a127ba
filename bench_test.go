// Package-level benchmarks: one testing.B per table and figure of the
// paper's evaluation (regenerating the artifact at quick scale), plus
// micro-benchmarks of the update path and ablations of the design
// choices DESIGN.md calls out (unit size, pools per SSD, replica count,
// encoding matrix construction).
//
// Regenerate everything:
//
//	go test -bench=. -benchmem
//	go run ./cmd/tsuebench -scale paper   # larger, paper-like runs
package tsue_test

import (
	"context"
	"testing"

	tsue "repro"

	"repro/internal/bench"
	"repro/internal/erasure"
	"repro/internal/update"
)

// benchScale keeps each experiment regeneration to roughly a second.
func benchScale() bench.Scale {
	s := bench.Quick()
	s.Ops = 1500
	s.FileSize = 4 << 20
	s.Clients = []int{4, 64}
	return s
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rep, err := bench.Experiments[id](context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + rep.String())
		}
	}
}

// BenchmarkFig5UpdateThroughput regenerates Fig. 5: update throughput of
// FO/PL/PLR/PARIX/CoRD/TSUE across six RS geometries and two cloud
// traces on the SSD cluster.
func BenchmarkFig5UpdateThroughput(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6aRecycleOverhead regenerates Fig. 6a: TSUE IOPS over the
// run's timeline (real-time recycling does not dent throughput).
func BenchmarkFig6aRecycleOverhead(b *testing.B) { runExperiment(b, "fig6a") }

// BenchmarkFig6bMemoryUsage regenerates Fig. 6b: IOPS and log memory as
// the unit quota sweeps 2..20.
func BenchmarkFig6bMemoryUsage(b *testing.B) { runExperiment(b, "fig6b") }

// BenchmarkFig7Breakdown regenerates Fig. 7: the Baseline/O1..O5
// contribution breakdown.
func BenchmarkFig7Breakdown(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkTable1Workload regenerates Table 1: storage workload and
// network traffic per update method.
func BenchmarkTable1Workload(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2Residence regenerates Table 2: per-layer log residence
// times.
func BenchmarkTable2Residence(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig8aHDDThroughput regenerates Fig. 8a: HDD-cluster update
// throughput over the MSR volumes.
func BenchmarkFig8aHDDThroughput(b *testing.B) { runExperiment(b, "fig8a") }

// BenchmarkFig8bRecovery regenerates Fig. 8b: recovery bandwidth after
// an update phase.
func BenchmarkFig8bRecovery(b *testing.B) { runExperiment(b, "fig8b") }

// BenchmarkUpdateOp measures the end-to-end cost of one client update
// through each method's synchronous path (real execution time of the
// in-process cluster, not modeled latency).
func BenchmarkUpdateOp(b *testing.B) {
	for _, method := range tsue.AllMethods {
		b.Run(method, func(b *testing.B) {
			opts := tsue.DefaultOptions()
			opts.Method = method
			opts.BlockSize = 64 << 10
			cluster := tsue.MustNewCluster(opts)
			defer cluster.Close()
			ctx := context.Background()
			cli := cluster.NewClient()
			f, err := cli.Open(ctx, "bench")
			if err != nil {
				b.Fatal(err)
			}
			data := make([]byte, cli.StripeSpan())
			if _, err := f.WriteAt(data, 0); err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 4096)
			b.SetBytes(4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := int64(i*4096) % int64(len(data)-4096)
				if _, err := f.UpdateAt(ctx, off, payload, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationUnitSize sweeps the TSUE log unit size — bigger units
// mean wider merge windows but longer residence.
func BenchmarkAblationUnitSize(b *testing.B) {
	for _, unit := range []int64{64 << 10, 256 << 10, 1 << 20} {
		b.Run(byteName(unit), func(b *testing.B) {
			ablationRun(b, func(cfg *update.Config) { cfg.UnitSize = unit })
		})
	}
}

// BenchmarkAblationPoolsPerSSD sweeps log pools per device (paper O4).
func BenchmarkAblationPoolsPerSSD(b *testing.B) {
	for _, pools := range []int{1, 2, 4, 8} {
		b.Run(intName("pools", pools), func(b *testing.B) {
			ablationRun(b, func(cfg *update.Config) { cfg.Pools = pools })
		})
	}
}

// BenchmarkAblationReplicaCount sweeps DataLog replica count (2 copies
// on SSD vs 3 on HDD per the paper's Fig. 2 note).
func BenchmarkAblationReplicaCount(b *testing.B) {
	for _, reps := range []int{0, 1, 2} {
		b.Run(intName("replicas", reps), func(b *testing.B) {
			ablationRun(b, func(cfg *update.Config) { cfg.DataLogReplicas = reps })
		})
	}
}

func ablationRun(b *testing.B, mutate func(*update.Config)) {
	b.Helper()
	s := benchScale()
	tr := tsue.TenCloudTrace(s.FileSize, s.Ops, s.Seed)
	for i := 0; i < b.N; i++ {
		iops, err := bench.AblationRun(context.Background(), "tsue", 6, 4, tr, s, mutate)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(iops, "modeled-iops")
	}
}

// BenchmarkAblationMatrixKind compares Vandermonde and Cauchy encoding
// matrix constructions on the full encode path.
func BenchmarkAblationMatrixKind(b *testing.B) {
	for _, kind := range []erasure.MatrixKind{erasure.Vandermonde, erasure.Cauchy} {
		b.Run(kind.String(), func(b *testing.B) {
			code := erasure.MustNew(6, 4, kind)
			shards := make([][]byte, 6)
			for i := range shards {
				shards[i] = make([]byte, 256<<10)
			}
			b.SetBytes(6 * 256 << 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := code.Encode(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func byteName(n int64) string {
	switch {
	case n >= 1<<20:
		return intName("unit_MiB", int(n>>20))
	default:
		return intName("unit_KiB", int(n>>10))
	}
}

func intName(prefix string, n int) string {
	digits := ""
	if n == 0 {
		digits = "0"
	}
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return prefix + "_" + digits
}
