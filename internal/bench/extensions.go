package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ecfs"
	"repro/internal/trace"
	"repro/internal/update"
)

// Latency is an extension experiment beyond the paper's charts: the paper
// claims TSUE "consistently achieved the highest aggregation IOPS and
// lowest latency" (§7) but only charts IOPS; this table reports the
// update-latency distribution per method under the Ten-Cloud trace.
func Latency(ctx context.Context, s Scale) (*Report, error) {
	rep := &Report{
		ID:     "latency",
		Title:  "Extension: update latency distribution (Ten-Cloud, RS(6,4))",
		Header: []string{"method", "mean", "p50", "p99", "p999", "max"},
	}
	for _, method := range []string{"fo", "pl", "plr", "parix", "cord", "tsue"} {
		tr, err := makeTrace("ten", s)
		if err != nil {
			return nil, err
		}
		rc := runConfig{Method: method, K: 6, M: 4, Trace: tr, Scale: s, NoFlush: true}
		c, err := ecfs.NewCluster(rc.clusterOptions())
		if err != nil {
			return nil, err
		}
		r := trace.NewReplayer(c, s.ReplayCli)
		f, err := r.Prepare(ctx, tr.Name, tr.FileSize)
		if err != nil {
			c.Close()
			return nil, err
		}
		if _, err := r.Run(ctx, tr, f); err != nil {
			c.Close()
			return nil, err
		}
		settleCluster(c)
		qs := r.Latency.Percentiles(50, 99, 99.9)
		rep.Rows = append(rep.Rows, []string{
			method,
			fmtUS(r.Latency.Mean()),
			fmtUS(qs[0]),
			fmtUS(qs[1]),
			fmtUS(qs[2]),
			fmtUS(r.Latency.Max()),
		})
		c.Close()
	}
	rep.Notes = append(rep.Notes,
		"expected shape: TSUE lowest mean/median (sequential log append front end); FO highest tail (full in-place path)")
	return rep, nil
}

// Compression is the paper's §7 future-work extension, measured: delta
// compression between log layers trades buffered CPU time for network
// traffic. Reported for a redundant and an incompressible payload mix.
func Compression(ctx context.Context, s Scale) (*Report, error) {
	rep := &Report{
		ID:     "compression",
		Title:  "Extension (paper §7): delta compression between log layers (TSUE, Ten-Cloud, RS(6,4))",
		Header: []string{"payload", "compress", "osd_net_MB", "IOPS(x1000)"},
	}
	clients := lastOr(s.Clients, 64)
	for _, redundant := range []bool{true, false} {
		for _, compress := range []bool{false, true} {
			tr, err := makeTrace("ten", s)
			if err != nil {
				return nil, err
			}
			res, err := runCompression(ctx, tr, s, compress, redundant)
			if err != nil {
				return nil, err
			}
			label := "random"
			if redundant {
				label = "redundant"
			}
			rep.Rows = append(rep.Rows, []string{
				label,
				fmt.Sprintf("%v", compress),
				fmt.Sprintf("%.1f", float64(res.Traffic)/(1<<20)),
				fmtK(res.iops(clients)),
			})
		}
	}
	rep.Notes = append(rep.Notes,
		"redundant payloads: network traffic drops with compression on; random payloads: compression is skipped per-message (no regression)")
	return rep, nil
}

func runCompression(ctx context.Context, tr *trace.Trace, s Scale, compress, redundant bool) (*runResult, error) {
	rc := runConfig{
		Method: "tsue", K: 6, M: 4, Trace: tr, Scale: s,
		Mutate: func(cfg *update.Config) { cfg.CompressDeltas = compress },
	}
	c, err := ecfs.NewCluster(rc.clusterOptions())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	rep := trace.NewReplayer(c, s.ReplayCli)
	if !redundant {
		rep.RandomPayload(s.Seed)
	}
	f, err := rep.Prepare(ctx, tr.Name, tr.FileSize)
	if err != nil {
		return nil, err
	}
	res, err := rep.Run(ctx, tr, f)
	if err != nil {
		return nil, err
	}
	settleCluster(c)
	out := &runResult{Replay: res}
	out.MaxBusy = maxBusyOf(c)
	if err := c.Flush(ctx); err != nil {
		return nil, err
	}
	out.Traffic = c.OSDTraffic()
	return out, nil
}

func fmtUS(d time.Duration) string {
	return fmt.Sprintf("%.0fus", float64(d)/float64(time.Microsecond))
}

// Extensions maps extension-experiment ids (beyond the paper's charts) to
// their generators.
var Extensions = map[string]func(context.Context, Scale) (*Report, error){
	"latency":        Latency,
	"compression":    Compression,
	"recovery":       Recovery,
	"recovery-multi": RecoveryMulti,
	"repair":         Repair,
	"mds-scale":      MDSScale,
	"scenario":       ScenarioSoak,
}
