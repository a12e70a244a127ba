package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ecfs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Repair is the repair-subsystem extension experiment. The first two
// rows compare degraded-read behavior during a recovery when the
// rebuild order is strict FIFO versus hint-prioritized: a client
// hammers a handful of hot stripes seeded near the *end* of the FIFO
// order, and the table reports how many of its reads had to K-way
// decode and how deep into the read sequence the last decode happened
// (last_degr_%). With prioritization the first degraded read promotes
// each hot stripe to the front of the queue, so the decode tail
// collapses. The middle rows measure the same queue doing planned work:
// Cluster.Drain and Cluster.Decommission migrating a live node's blocks
// onto the survivor pool (sourced from the node itself — no decode).
// The final rows are the scheduler-cap sweep: the same drain under
// foreground readers, first uncapped and then with a rebuild-bandwidth
// cap, proving the capped run's rebuild bandwidth lands at or under
// the cap while the foreground readers move more data per wall second.
//
// The repair_MBps / foreground_MBps columns come from per-class traffic
// tagging (sim.Class): every priced transfer carries a class, so shared
// NICs account rebuild/drain bytes separately from the foreground
// workload. repair_MBps is tagged rebuild+drain traffic over the run's
// modeled makespan (virtual time — comparable to the cap);
// foreground_MBps is tagged foreground traffic over the bottleneck
// resource's busy time in the measurement window (operational-law
// throughput — rebuild interference inflates the denominator, a capped
// rebuild spreads it beyond the window).
func Repair(ctx context.Context, s Scale) (*Report, error) {
	rep := &Report{
		ID:    "repair",
		Title: "Extension: repair scheduler — read-through repair, tagged traffic, capped drain (TSUE, Ten-Cloud, RS(6,4))",
		Header: []string{
			"scenario", "hot_reads", "degraded", "last_degr_%", "blocks", "moved_MB", "time_ms", "repair_MBps", "foreground_MBps",
		},
	}
	for _, fifo := range []bool{true, false} {
		row, err := repairReadRow(ctx, s, fifo)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	for _, decommission := range []bool{false, true} {
		row, err := repairDrainRow(ctx, s, decommission)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	// Scheduler-cap sweep: the uncapped run sets the baseline; the
	// capped run (Scale.MaxRebuildMBps, or a quarter of the baseline)
	// must land at or under its cap.
	uncapped, baseMBps, err := repairCapRow(ctx, s, 0)
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, uncapped)
	capMBps := s.MaxRebuildMBps
	if capMBps <= 0 {
		capMBps = baseMBps / 4
	}
	if capMBps <= 0 {
		capMBps = 1
	}
	capped, _, err := repairCapRow(ctx, s, capMBps)
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, capped)

	rep.Notes = append(rep.Notes,
		"expected shape: prioritized repair ends the degraded-read tail earlier than FIFO (lower last_degr_%); drain moves blocks at copy bandwidth (no K-way decode)",
		fmt.Sprintf("drain/fg/capped ran under a %.1f MB/s rebuild cap: repair_MBps stays at or under it (scheduler token bucket + makespan floor) while foreground_MBps beats the uncapped row (the throttled drain yields wall time to the readers)", capMBps),
		"repair_MBps = tagged rebuild+drain bytes / virtual makespan; foreground_MBps = tagged foreground bytes / bottleneck busy time of the window (operational law); read counts race the rebuild in wall time and vary run to run",
	)
	return rep, nil
}

// classWindow brackets a measurement of the per-class traffic a cluster
// moves: open before the maintenance operation, then derive separated
// rebuild and foreground rates from the deltas.
type classWindow struct {
	c       *ecfs.Cluster
	rebuild int64
	fg      int64
	busy    []time.Duration
}

func openClassWindow(c *ecfs.Cluster) *classWindow {
	return &classWindow{
		c:       c,
		rebuild: rebuildTraffic(c),
		fg:      foregroundTraffic(c),
		busy:    sim.SnapshotBusy(c.Resources()),
	}
}

// rebuildTraffic is the cluster's rebuild+drain ledger — the same
// definition the scheduler's budget meters (Cluster.RebuildTraffic).
func rebuildTraffic(c *ecfs.Cluster) int64 {
	return c.RebuildTraffic()
}

// foregroundTraffic sums the cluster's tagged foreground bytes.
func foregroundTraffic(c *ecfs.Cluster) int64 {
	var n int64
	for _, cls := range sim.ForegroundClasses {
		n += c.Net.TrafficByClass(cls)
	}
	return n
}

// repairMBps is the tagged rebuild/drain traffic of the window over the
// run's modeled makespan — the number a rebuild cap bounds.
func (w *classWindow) repairMBps(window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(rebuildTraffic(w.c)-w.rebuild) / window.Seconds() / 1e6
}

// foregroundMBps is the operational-law foreground rate of the window:
// tagged foreground bytes over the bottleneck resource's busy time —
// everything that resource did, rebuild interference included. When the
// rebuild crowds the foreground off a shared NIC, the denominator
// inflates and the rate drops; a capped rebuild spreads its busy time
// outside the window and the foreground keeps its bandwidth.
func (w *classWindow) foregroundMBps() float64 {
	busy := sim.MaxBusyDelta(w.c.Resources(), w.busy)
	if busy <= 0 {
		return 0
	}
	return float64(foregroundTraffic(w.c)-w.fg) / busy.Seconds() / 1e6
}

// repairReadRow runs one recovery (FIFO or prioritized) with a client
// reading hot stripes throughout, and reports the degraded-read tail
// plus the class-separated bandwidths of the window.
func repairReadRow(ctx context.Context, s Scale, fifo bool) ([]string, error) {
	scenario := "recover/prio"
	if fifo {
		scenario = "recover/fifo"
	}
	tr, err := makeTrace("ten", s)
	if err != nil {
		return nil, err
	}
	lc, err := loadCluster(ctx, runConfig{Method: "tsue", K: 6, M: 4, Trace: tr, Scale: s})
	if err != nil {
		return nil, fmt.Errorf("repair %s: %w", scenario, err)
	}
	c := lc.c
	defer c.Close()

	victim := c.OSDs[1]
	c.FailOSD(victim.ID())
	freshID := wire.NodeID(c.Opts.NumOSDs + 1)
	cfg := *lc.opts.Strategy
	cfg.BlockSize = c.Opts.BlockSize
	repl, err := ecfs.NewOSD(freshID, c.Opts.Device, c.Tr.Caller(freshID), "tsue", cfg, c.Opts.Kind)
	if err != nil {
		return nil, err
	}
	c.AddOSD(repl)

	// Hot set: the last few data blocks the victim hosts in the queue's
	// FIFO seed order (StripesOnSorted = the engines' rebuild order) —
	// the worst case for a FIFO rebuild.
	refs := c.MDS.StripesOnSorted(victim.ID())
	var hot []ecfs.StripeRef
	for _, ref := range refs {
		if int(ref.Idx) < c.Opts.K {
			hot = append(hot, ref)
		}
	}
	if len(hot) > 4 {
		hot = hot[len(hot)-4:]
	}
	if len(hot) == 0 {
		return nil, fmt.Errorf("repair %s: victim hosts no data blocks", scenario)
	}

	cli := c.NewClient()
	f, err := cli.Open(ctx, lc.f.Name())
	if err != nil {
		return nil, fmt.Errorf("repair %s: %w", scenario, err)
	}
	span := int64(cli.StripeSpan())
	var (
		stop     atomic.Bool
		reads    int64
		lastDegr int64
	)
	readerDone := make(chan error, 1)
	go func() {
		for !stop.Load() {
			for _, ref := range hot {
				off := int64(ref.Stripe)*span + int64(ref.Idx)*int64(c.Opts.BlockSize)
				before := cli.Stats().DegradedReads
				if _, _, err := f.ReadRange(ctx, off, 256); err != nil {
					readerDone <- err
					return
				}
				reads++
				if cli.Stats().DegradedReads > before {
					lastDegr = reads
				}
			}
		}
		readerDone <- nil
	}()

	rebuild := c.Recover
	if fifo {
		rebuild = c.RecoverFIFO
	}
	win := openClassWindow(c)
	res, err := rebuild(ctx, victim.ID(), repl)
	stop.Store(true)
	fgMBps := win.foregroundMBps()
	if rerr := <-readerDone; rerr != nil {
		return nil, fmt.Errorf("repair %s: hot read: %w", scenario, rerr)
	}
	if err != nil {
		return nil, fmt.Errorf("repair %s: %w", scenario, err)
	}

	tailPct := 0.0
	if reads > 0 {
		tailPct = 100 * float64(lastDegr) / float64(reads)
	}
	// With per-class tagging the recover rows finally report a clean
	// repair bandwidth under load: the hot reader's traffic no longer
	// pollutes the rebuild column, it *is* the foreground column.
	return []string{
		scenario,
		fmt.Sprintf("%d", reads),
		fmt.Sprintf("%d", cli.Stats().DegradedReads),
		fmt.Sprintf("%.0f", tailPct),
		fmt.Sprintf("%d", res.Blocks),
		fmtMB(res.Bytes),
		fmtMS(res.VirtualTime),
		fmtBW(win.repairMBps(res.VirtualTime) * 1e6),
		fmtBW(fgMBps * 1e6),
	}, nil
}

// repairDrainRow measures the planned-migration path: every block moves
// off a live node under per-stripe epoch bumps, sourced from the node
// itself.
func repairDrainRow(ctx context.Context, s Scale, decommission bool) ([]string, error) {
	scenario := "drain"
	if decommission {
		scenario = "decommission"
	}
	tr, err := makeTrace("ten", s)
	if err != nil {
		return nil, err
	}
	lc, err := loadCluster(ctx, runConfig{Method: "tsue", K: 6, M: 4, Trace: tr, Scale: s})
	if err != nil {
		return nil, fmt.Errorf("repair %s: %w", scenario, err)
	}
	c := lc.c
	defer c.Close()

	node := c.OSDs[1].ID()
	migrate := c.Drain
	if decommission {
		migrate = c.Decommission
	}
	win := openClassWindow(c)
	res, err := migrate(ctx, node)
	if err != nil {
		return nil, fmt.Errorf("repair %s: %w", scenario, err)
	}
	// The cluster keeps serving: prove it with a post-migration read.
	f, err := c.NewClient().Open(ctx, lc.f.Name())
	if err == nil {
		_, _, err = f.ReadRange(ctx, 0, 4096)
	}
	if err != nil {
		return nil, fmt.Errorf("repair %s: post-migration read: %w", scenario, err)
	}
	return []string{
		scenario,
		"-",
		"-",
		"-",
		fmt.Sprintf("%d", res.Moved),
		fmtMB(res.Bytes),
		fmtMS(res.VirtualTime),
		fmtBW(win.repairMBps(res.VirtualTime) * 1e6),
		"-",
	}, nil
}

// repairCapRow runs one drain under concurrent foreground readers with
// the given rebuild-bandwidth cap (0 = uncapped) and returns its row
// plus the measured repair bandwidth in MB/s, which the caller uses to
// derive the capped run's budget.
func repairCapRow(ctx context.Context, s Scale, capMBps float64) ([]string, float64, error) {
	scenario := "drain/fg/uncapped"
	if capMBps > 0 {
		scenario = "drain/fg/capped"
	}
	tr, err := makeTrace("ten", s)
	if err != nil {
		return nil, 0, err
	}
	lc, err := loadCluster(ctx, runConfig{Method: "tsue", K: 6, M: 4, Trace: tr, Scale: s})
	if err != nil {
		return nil, 0, fmt.Errorf("repair %s: %w", scenario, err)
	}
	c := lc.c
	defer c.Close()
	if capMBps > 0 {
		c.SetRebuildCap(capMBps)
	}

	// Foreground load: a fixed read workload fanned across many client
	// NICs, so the contended resources are the OSD-side NICs the drain
	// shares. The measurement window closes when the readers finish —
	// an uncapped drain dumps its whole interference burst inside that
	// window, a capped one spreads it out beyond it.
	const readerClients = 16
	readsEach := 256
	node := c.OSDs[1].ID()
	win := openClassWindow(c)

	type drainOut struct {
		res *ecfs.DrainResult
		err error
	}
	drainDone := make(chan drainOut, 1)
	go func() {
		res, err := c.Drain(ctx, node)
		drainDone <- drainOut{res, err}
	}()

	readerErrs := make(chan error, readerClients)
	var wg sync.WaitGroup
	for r := 0; r < readerClients; r++ {
		cli := c.NewClient()
		wg.Add(1)
		go func(r int, cli *ecfs.Client) {
			defer wg.Done()
			span := int64(cli.StripeSpan())
			f, err := cli.Open(ctx, lc.f.Name())
			if err != nil {
				readerErrs <- err
				return
			}
			stripes, err := f.Stripes(ctx)
			if err != nil {
				readerErrs <- err
				return
			}
			size := int64(stripes) * span
			off := (size / readerClients) * int64(r)
			for i := 0; i < readsEach; i++ {
				if off+4096 > size {
					off = 0
				}
				if _, _, err := f.ReadRange(ctx, off, 4096); err != nil {
					readerErrs <- err
					return
				}
				off += 4096
			}
		}(r, cli)
	}
	wg.Wait()
	fgMBps := win.foregroundMBps() // window closes with the readers
	// Await the drain before touching any error path: the deferred
	// cluster Close must never tear down OSDs under an active migration.
	out := <-drainDone
	select {
	case rerr := <-readerErrs:
		return nil, 0, fmt.Errorf("repair %s: foreground read: %w", scenario, rerr)
	default:
	}
	res, err := out.res, out.err
	if err != nil {
		return nil, 0, fmt.Errorf("repair %s: %w", scenario, err)
	}

	repairMBps := win.repairMBps(res.VirtualTime)
	return []string{
		scenario,
		fmt.Sprintf("%d", readerClients*readsEach),
		"-",
		"-",
		fmt.Sprintf("%d", res.Moved),
		fmtMB(res.Bytes),
		fmtMS(res.VirtualTime),
		fmtBW(repairMBps * 1e6),
		fmtBW(fgMBps * 1e6),
	}, repairMBps, nil
}
