package bench

import (
	"context"
	"fmt"

	"repro/internal/ecfs"
	"repro/internal/trace"
	"repro/internal/update"
)

// fig8Methods are the methods charted on the HDD cluster (the paper
// omits CoRD in Fig. 8).
var fig8Methods = []string{"fo", "pl", "plr", "parix", "tsue"}

// hddTune applies the paper's HDD deployment knobs: one log pool per HDD
// (§5.4) with units small enough that real-time recycling cycles within
// the run.
func hddTune(s Scale) func(cfg *update.Config) {
	return func(cfg *update.Config) {
		cfg.Pools = 1
		cfg.UnitSize = max(s.UnitSize/8, 32<<10)
	}
}

// Fig8a reproduces the HDD update-throughput comparison over the seven
// MSR Cambridge volumes under RS(6,4). The HDD deployment uses the
// paper's §5.4 profile: 40 Gb/s interconnect, 3-copy DataLog, no
// DeltaLog.
func Fig8a(ctx context.Context, s Scale) (*Report, error) {
	rep := &Report{
		ID:     "fig8a",
		Title:  "Update throughput with HDDs (MSR volumes, RS(6,4), IOPS x1000)",
		Header: append([]string{"method"}, trace.MSRVolumes...),
	}
	clients := lastOr(s.Clients, 64)
	for _, method := range fig8Methods {
		row := []string{method}
		for _, vol := range trace.MSRVolumes {
			tr, err := makeTrace(vol, s)
			if err != nil {
				return nil, err
			}
			res, err := run(ctx, runConfig{Method: method, K: 6, M: 4, Trace: tr, Scale: s, HDD: true, NoFlush: true, Mutate: hddTune(s)})
			if err != nil {
				return nil, fmt.Errorf("fig8a %s %s: %w", method, vol, err)
			}
			row = append(row, fmtK(res.iops(clients)))
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Notes = append(rep.Notes,
		"expected shape: TSUE best on every volume (up to ~16x FO, ~4x PL, ~9x PLR, ~3.6x PARIX)")
	return rep, nil
}

// Fig8b reproduces the recovery-bandwidth comparison: after an update
// phase, one OSD fails and its blocks are rebuilt from stripe survivors.
// Logs must drain before reconstruction, so methods with large pending
// logs (PL/PLR/PARIX) recover slower; TSUE's real-time recycling leaves
// almost nothing pending and recovers at FO-like bandwidth. Scale's
// Fig8bWorkers adds a rebuild-parallelism axis (tsuebench
// -fig8b-workers); the default single entry reproduces the paper's one
// recovery configuration.
func Fig8b(ctx context.Context, s Scale) (*Report, error) {
	sweep := s.Fig8bWorkers
	if len(sweep) == 0 {
		sweep = []int{0} // 0 = the cluster default worker count
	}
	rep := &Report{
		ID:     "fig8b",
		Title:  "Recovery bandwidth after updates (MSR volumes, RS(6,4), MB/s)",
		Header: append([]string{"method", "workers"}, trace.MSRVolumes...),
	}
	for _, method := range fig8Methods {
		for _, w := range sweep {
			label := w
			if label <= 0 {
				label = ecfs.DefaultRecoveryWorkers
			}
			row := []string{method, fmt.Sprintf("%d", label)}
			for _, vol := range trace.MSRVolumes {
				bw, err := recoveryRun(ctx, method, vol, s, w)
				if err != nil {
					return nil, fmt.Errorf("fig8b %s %s w=%d: %w", method, vol, w, err)
				}
				row = append(row, fmtBW(bw))
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	rep.Notes = append(rep.Notes,
		"expected shape: TSUE ~ FO (logs recycled in real time); PL/PLR/PARIX depressed by pending-log replay before reconstruction",
	)
	if len(sweep) > 1 {
		rep.Notes = append(rep.Notes,
			"worker axis: bandwidth grows with rebuild parallelism until the drain cost or the bottleneck device dominates")
	}
	return rep, nil
}

// recoveryRun replays a volume's updates, fails one OSD, and measures
// the recovery bandwidth (bytes rebuilt / recovery makespan including
// the forced log drain). workers <= 0 selects the cluster default.
func recoveryRun(ctx context.Context, method, vol string, s Scale, workers int) (float64, error) {
	tr, err := makeTrace(vol, s)
	if err != nil {
		return 0, err
	}
	lc, err := loadCluster(ctx, runConfig{Method: method, K: 6, M: 4, Trace: tr, Scale: s, HDD: true, Mutate: hddTune(s), RecoveryWorkers: workers})
	if err != nil {
		return 0, err
	}
	defer lc.c.Close()
	res, err := failAndRecover(ctx, lc.c, 1)
	if err != nil {
		return 0, err
	}
	return res.Bandwidth, nil
}

// fmtBW renders bandwidth in MB/s with enough precision for tiny values.
func fmtBW(bw float64) string {
	mbps := bw / 1e6
	if mbps < 10 {
		return fmt.Sprintf("%.2f", mbps)
	}
	return fmt.Sprintf("%.1f", mbps)
}
