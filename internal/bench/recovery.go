package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ecfs"
	"repro/internal/trace"
	"repro/internal/update"
)

// defaultRecoveryWorkerSweep is the worker-count axis of the recovery
// experiment when Scale.RecoveryWorkers is empty.
var defaultRecoveryWorkerSweep = []int{1, 2, 4, 8}

// recoveryMethods are the methods compared on the recovery axis: the
// in-place baseline, the two deferred-recycle log baselines whose
// pending logs depress recovery, and TSUE.
var recoveryMethods = []string{"fo", "pl", "parix", "tsue"}

// loadedCluster is a cluster with one trace replayed onto it, ready for
// failure injection. The replayer and file allow further update rounds
// (multi-failure scenarios) without re-preparing the file.
type loadedCluster struct {
	c    *ecfs.Cluster
	opts ecfs.Options
	rep  *trace.Replayer
	f    *ecfs.File
}

// loadCluster builds a cluster for rc, replays its trace, settles
// real-time recycling, and — for real-time methods, matching the paper's
// recovery setup where the workload has terminated — drains the
// remaining seconds-scale buffers. Threshold-driven logs (PL/PLR/PARIX)
// stay pending, which is exactly what their recovery pays for. The
// caller owns Close.
func loadCluster(ctx context.Context, rc runConfig) (*loadedCluster, error) {
	opts := rc.clusterOptions()
	c, err := ecfs.NewCluster(opts)
	if err != nil {
		return nil, err
	}
	rep := trace.NewReplayer(c, rc.Scale.ReplayCli)
	f, err := rep.Prepare(ctx, rc.Trace.Name, rc.Trace.FileSize)
	if err != nil {
		c.Close()
		return nil, err
	}
	if _, err := rep.Run(ctx, rc.Trace, f); err != nil {
		c.Close()
		return nil, err
	}
	settleCluster(c)
	if _, ok := c.OSDs[0].Strategy().(interface{ RealTimeFlush() error }); ok {
		for phase := 1; phase <= update.DrainPhases; phase++ {
			for _, o := range c.Alive() {
				if err := o.Strategy().Drain(ctx, phase, nil); err != nil {
					c.Close()
					return nil, err
				}
			}
		}
	}
	return &loadedCluster{c: c, opts: opts, rep: rep, f: f}, nil
}

// failAndRecover fails the OSD at position pos and rebuilds it with the
// cluster's worker count. The replacement is returned reinstated, so
// multi-failure scenarios can keep going on the same cluster.
func failAndRecover(ctx context.Context, c *ecfs.Cluster, opts ecfs.Options, method string, pos int) (*ecfs.RecoveryResult, error) {
	victim := c.OSDs[pos]
	c.FailOSD(victim.ID())
	cfg := *opts.Strategy
	repl, err := newReplacement(c, victim.ID(), method, cfg)
	if err != nil {
		return nil, err
	}
	res, err := c.Recover(ctx, victim.ID(), repl)
	if err != nil {
		repl.Close()
		return nil, err
	}
	c.Reinstate(repl)
	return res, nil
}

// Recovery is the extension experiment for the paper's recovery axis on
// the SSD testbed: rebuild time and bandwidth versus the rebuild worker
// count and the update method. The worker sweep shows the pipelined
// engine converting per-stripe latency into parallelism until the
// bottleneck resource dominates; the method axis shows pending logs
// (PL/PARIX) depressing recovery exactly as in Fig. 8b.
func Recovery(ctx context.Context, s Scale) (*Report, error) {
	sweep := s.RecoveryWorkers
	if len(sweep) == 0 {
		sweep = defaultRecoveryWorkerSweep
	}
	rep := &Report{
		ID:     "recovery",
		Title:  "Extension: recovery vs worker count and method (Ten-Cloud, RS(6,4))",
		Header: []string{"method", "workers", "blocks", "replayed_KiB", "drain_ms", "time_ms", "MB/s"},
	}
	tr, err := makeTrace("ten", s)
	if err != nil {
		return nil, err
	}
	for _, method := range recoveryMethods {
		for _, w := range sweep {
			lc, err := loadCluster(ctx, runConfig{Method: method, K: 6, M: 4, Trace: tr, Scale: s, RecoveryWorkers: w})
			if err != nil {
				return nil, fmt.Errorf("recovery %s w=%d: %w", method, w, err)
			}
			res, err := failAndRecover(ctx, lc.c, lc.opts, method, 1)
			if err != nil {
				lc.c.Close()
				return nil, fmt.Errorf("recovery %s w=%d: %w", method, w, err)
			}
			rep.Rows = append(rep.Rows, []string{
				method,
				fmt.Sprintf("%d", w),
				fmt.Sprintf("%d", res.Blocks),
				fmt.Sprintf("%d", res.ReplayedBytes>>10),
				fmtMS(res.DrainTime),
				fmtMS(res.VirtualTime),
				fmtBW(res.Bandwidth),
			})
			lc.c.Close()
		}
	}
	rep.Notes = append(rep.Notes,
		"expected shape: time falls as workers grow until the bottleneck resource dominates; fo/tsue recover fastest (nothing pending), pl/parix pay the forced drain")
	return rep, nil
}

// RecoveryMulti is the multi-failure scenario: update, fail an OSD,
// recover it, update again, fail a different OSD, recover again. Each
// round recovers with fresh pending-log state; the cluster must scrub
// clean at the end.
func RecoveryMulti(ctx context.Context, s Scale) (*Report, error) {
	rep := &Report{
		ID:     "recovery-multi",
		Title:  "Extension: sequential multi-failure recovery (TSUE, Ten-Cloud, RS(6,4))",
		Header: []string{"round", "victim", "blocks", "skipped", "replayed_KiB", "time_ms", "MB/s"},
	}
	tr, err := makeTrace("ten", s)
	if err != nil {
		return nil, err
	}
	lc, err := loadCluster(ctx, runConfig{Method: "tsue", K: 6, M: 4, Trace: tr, Scale: s})
	if err != nil {
		return nil, err
	}
	c := lc.c
	defer c.Close()

	for round, pos := range []int{1, 4} {
		if round > 0 {
			// Fresh updates between failures, so the second recovery
			// also replays pending state.
			if _, err := lc.rep.Run(ctx, tr, lc.f); err != nil {
				return nil, err
			}
			settleCluster(c)
		}
		victim := c.OSDs[pos].ID()
		res, err := failAndRecover(ctx, c, lc.opts, "tsue", pos)
		if err != nil {
			return nil, fmt.Errorf("recovery-multi round %d: %w", round+1, err)
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", round+1),
			fmt.Sprintf("osd%d", victim),
			fmt.Sprintf("%d", res.Blocks),
			fmt.Sprintf("%d", res.Skipped),
			fmt.Sprintf("%d", res.ReplayedBytes>>10),
			fmtMS(res.VirtualTime),
			fmtBW(res.Bandwidth),
		})
	}
	if err := c.Flush(ctx); err != nil {
		return nil, err
	}
	checked, err := c.Scrub()
	if err != nil {
		return nil, fmt.Errorf("recovery-multi: post-recovery scrub: %w", err)
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("post-recovery scrub verified %d stripes parity-consistent after two sequential failures", checked))
	return rep, nil
}

// fmtMS renders a duration in milliseconds.
func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}
