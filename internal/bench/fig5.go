package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ecfs"
	"repro/internal/trace"
	"repro/internal/update"
)

// fig5Geometries are the six RS(K,M) codes of Fig. 5 (a)-(l).
var fig5Geometries = [][2]int{{6, 2}, {12, 2}, {6, 3}, {12, 3}, {6, 4}, {12, 4}}

// Fig5 reproduces Fig. 5: aggregate update IOPS of FO, PL, PLR, PARIX,
// CoRD and TSUE under the Ali-Cloud and Ten-Cloud traces, for six RS
// geometries and a client sweep. One replay per (geometry, trace,
// method); the client sweep derives from the bottleneck model, since
// per-request costs are client-count independent.
func Fig5(ctx context.Context, s Scale) (*Report, error) {
	rep := &Report{
		ID:     "fig5",
		Title:  "Update throughput with SSDs (aggregate IOPS x1000)",
		Header: append([]string{"rs", "trace", "method"}, clientCols(s.Clients)...),
	}
	for _, km := range fig5Geometries {
		for _, tn := range []string{"ali", "ten"} {
			tr, err := makeTrace(tn, s)
			if err != nil {
				return nil, err
			}
			for _, method := range []string{"fo", "pl", "plr", "parix", "cord", "tsue"} {
				res, err := run(ctx, runConfig{Method: method, K: km[0], M: km[1], Trace: tr, Scale: s, NoFlush: true})
				if err != nil {
					return nil, fmt.Errorf("fig5 %s rs(%d,%d) %s: %w", method, km[0], km[1], tn, err)
				}
				row := []string{fmt.Sprintf("RS(%d,%d)", km[0], km[1]), tn, method}
				for _, c := range s.Clients {
					row = append(row, fmtK(res.iops(c)))
				}
				rep.Rows = append(rep.Rows, row)
			}
		}
	}
	rep.Notes = append(rep.Notes,
		"expected shape: TSUE highest everywhere; advantage grows with M; Ten-Cloud > Ali-Cloud for TSUE; throughput saturates toward 64 clients")
	return rep, nil
}

func clientCols(clients []int) []string {
	out := make([]string, len(clients))
	for i, c := range clients {
		out[i] = fmt.Sprintf("c=%d", c)
	}
	return out
}

// Fig6a reproduces Fig. 6a: TSUE's aggregate IOPS over the run's
// timeline, showing that background recycling does not dent foreground
// throughput. The trace is replayed window by window; each window's IOPS
// derives from the resources consumed within it.
func Fig6a(ctx context.Context, s Scale) (*Report, error) {
	tr, err := makeTrace("ten", s)
	if err != nil {
		return nil, err
	}
	const windows = 10
	rc := runConfig{Method: "tsue", K: 6, M: 4, Trace: tr, Scale: s}
	c, err := ecfs.NewCluster(rc.clusterOptions())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	rep := trace.NewReplayer(c, s.ReplayCli)
	f, err := rep.Prepare(ctx, tr.Name, tr.FileSize)
	if err != nil {
		return nil, err
	}
	out := &Report{
		ID:     "fig6a",
		Title:  "Recycle overhead in update (TSUE, Ten-Cloud, RS(6,4)): IOPS x1000 per window",
		Header: []string{"window", "t(virtual)", "IOPS(x1000)"},
	}
	per := (len(tr.Ops) + windows - 1) / windows
	clients := lastOr(s.Clients, 64)
	for w := 0; w < windows; w++ {
		lo, hi := w*per, min((w+1)*per, len(tr.Ops))
		if lo >= hi {
			break
		}
		sub := &trace.Trace{Name: tr.Name, FileSize: tr.FileSize, Ops: tr.Ops[lo:hi]}
		before := snapshotBusy(c)
		res, err := rep.Run(ctx, sub, f)
		if err != nil {
			return nil, err
		}
		settleCluster(c)
		delta := maxBusyDelta(c, before)
		clientTime := time.Duration(res.Ops) * res.AvgLatency / time.Duration(clients)
		if clientTime > delta {
			delta = clientTime
		}
		iops := 0.0
		if delta > 0 {
			iops = float64(res.Ops) / delta.Seconds()
		}
		out.Rows = append(out.Rows, []string{
			fmt.Sprintf("%d", w+1),
			fmt.Sprintf("%.1fs", sub.Ops[len(sub.Ops)-1].At.Seconds()),
			fmtK(iops),
		})
	}
	out.Notes = append(out.Notes, "expected shape: flat across windows — real-time recycling does not dent update throughput")
	return out, nil
}

// Fig6b reproduces Fig. 6b: TSUE IOPS and peak log memory as the unit
// quota (maximum number of log units per pool) sweeps 2..20. A quota of
// 2 starves the recycle pipeline (stall time surfaces in latency); >= 4
// is flat; memory grows linearly.
func Fig6b(ctx context.Context, s Scale) (*Report, error) {
	// Fig. 6b probes the pool at saturation: the unit quota is the
	// recycle pipeline depth, so it only matters when arrivals keep the
	// pipeline full. Units are shrunk so they turn over many times, and
	// the arrival rate is self-calibrated: a first pass with a deep
	// quota measures the cluster's capacity, then the sweep runs at a
	// slight overload of that capacity.
	s.UnitSize = max(s.UnitSize/4, 32<<10)
	clients := lastOr(s.Clients, 64)
	tr, err := makeTrace("ten", s)
	if err != nil {
		return nil, err
	}
	cal, err := run(ctx, runConfig{
		Method: "tsue", K: 6, M: 4, Trace: tr, Scale: s, NoFlush: true,
		Mutate: func(cfg *update.Config) { cfg.MaxUnits = 64 },
	})
	if err != nil {
		return nil, err
	}
	if capacity := cal.iops(clients); capacity > 0 {
		s.Rate = capacity
	}
	// Walk the rate down until a deep-quota run is (nearly) stall-free:
	// that is the recycle pipeline's sustainable rate. The sweep then
	// runs just above it, where quota depth is what absorbs bursts.
	for iter := 0; iter < 6; iter++ {
		tr, err = makeTrace("ten", s)
		if err != nil {
			return nil, err
		}
		probe, err := run(ctx, runConfig{
			Method: "tsue", K: 6, M: 4, Trace: tr, Scale: s, NoFlush: true,
			Mutate: func(cfg *update.Config) { cfg.MaxUnits = 64 },
		})
		if err != nil {
			return nil, err
		}
		var stallShare float64
		if tot := probe.Replay.TotalLatency; tot > 0 {
			stallShare = stallTimeOf(probe) / float64(tot)
		}
		if stallShare < 0.05 {
			break
		}
		s.Rate /= 2
	}
	s.Rate *= 1.5 // slight overload so shallow quotas visibly stall
	tr, err = makeTrace("ten", s)
	if err != nil {
		return nil, err
	}
	out := &Report{
		ID:     "fig6b",
		Title:  "Memory usage vs performance (TSUE, Ten-Cloud, RS(6,4))",
		Header: []string{"max_units", "IOPS(x1000)", "log_mem(MB)", "stalls"},
	}
	for _, units := range []int{2, 4, 6, 8, 12, 16, 20} {
		units := units
		res, err := run(ctx, runConfig{
			Method: "tsue", K: 6, M: 4, Trace: tr, Scale: s, NoFlush: true,
			Mutate: func(cfg *update.Config) { cfg.MaxUnits = units },
		})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, []string{
			fmt.Sprintf("%d", units),
			fmtK(res.iops(clients)),
			fmtMB(res.Memory),
			fmt.Sprintf("%d", res.Stalls),
		})
	}
	out.Notes = append(out.Notes,
		"expected shape: shallow quotas stall the append path (see stalls column), deeper quotas absorb bursts; memory grows linearly with the quota",
		"divergence: the paper's IOPS dip at 2 units is reproduced as a stall-count gradient; the closed-loop cap in the stall model mutes its IOPS magnitude (see EXPERIMENTS.md)",
		"paper sets the production default to 4 units")
	return out, nil
}

// stallTimeOf sums modeled stall time across a run's log layers.
func stallTimeOf(r *runResult) float64 {
	var n float64
	for _, st := range r.Layers {
		n += float64(st.StallTime)
	}
	return n
}

func lastOr(xs []int, def int) int {
	if len(xs) == 0 {
		return def
	}
	return xs[len(xs)-1]
}
