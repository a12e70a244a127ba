// Package bench regenerates every table and figure of the paper's
// evaluation (§5): Fig. 5 (update throughput on the SSD cluster across
// six RS geometries, two cloud traces and five client counts), Fig. 6a/6b
// (recycle overhead and memory), Fig. 7 (contribution breakdown), Table 1
// (storage workload and network traffic), Table 2 (log residence times),
// and Fig. 8a/8b (HDD throughput and recovery bandwidth).
//
// Each experiment builds a fresh in-process cluster per configuration,
// replays a synthetic trace with real concurrency, lets real-time
// recycling settle, and derives throughput from the bottleneck model
// (see internal/sim). Absolute numbers are not the authors' testbed's;
// the shapes — who wins, by what factor, where crossovers sit — are the
// reproduction target (see DESIGN.md).
//
// Beyond the paper's charts, the Extensions map adds experiments the
// paper motivates but does not plot: update-latency distributions,
// delta-compression traffic, recovery bandwidth versus rebuild
// parallelism and method, sequential multi-failure recovery, and
// mds-scale — metadata lookup and recovery work-list throughput versus
// the MDS namespace shard count (the one experiment reporting
// wall-clock, since pure metadata work sits outside the simulated
// device/network clock).
package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/device"
	"repro/internal/ecfs"
	"repro/internal/erasure"
	"repro/internal/logpool"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/update"
)

// Scale sizes an experiment run. Quick() keeps the full suite in CI
// time; Paper() approaches the paper's workload sizes.
type Scale struct {
	NumOSDs   int
	BlockSize int
	FileSize  int64
	Ops       int
	Rate      float64 // trace arrival rate (requests/second)
	Clients   []int   // client-count sweep (Fig. 5)
	ReplayCli int     // concurrent clients used while replaying
	UnitSize  int64
	MaxUnits  int
	Pools     int
	Workers   int
	Seed      int64
	// RecoveryWorkers is the rebuild-parallelism sweep of the recovery
	// experiment; empty selects the default {1, 2, 4, 8}.
	RecoveryWorkers []int
	// Fig8bWorkers is the rebuild-parallelism axis of the fig8b HDD
	// recovery sweep; empty selects the cluster default
	// (ecfs.DefaultRecoveryWorkers), reproducing the paper's single
	// recovery configuration.
	Fig8bWorkers []int
	// MaxRebuildMBps is the rebuild-bandwidth cap (decimal MB/s) the
	// repair experiment's capped drain row runs under; <= 0 derives the
	// cap from the measured uncapped baseline (a quarter of it).
	// tsuebench threads -max-rebuild-mbps through here.
	MaxRebuildMBps float64
	// Scenario, Tenants, FaultSeed, and SoakDuration parameterize the
	// scenario extension (the multi-tenant fault-injection soak,
	// internal/scenario). Zero values select the scenario defaults;
	// FaultSeed 0 falls back to Seed. tsuebench threads -scenario,
	// -tenants, -fault-seed, and -soak-duration through here.
	Scenario     string
	Tenants      int
	FaultSeed    int64
	SoakDuration time.Duration
}

// Quick returns a scale small enough for tests and CI.
func Quick() Scale {
	return Scale{
		NumOSDs:   16,
		BlockSize: 64 << 10,
		FileSize:  8 << 20,
		Ops:       3000,
		Rate:      400_000,
		Clients:   []int{4, 16, 64},
		ReplayCli: 8,
		UnitSize:  256 << 10,
		MaxUnits:  4,
		Pools:     4,
		Workers:   2,
		Seed:      1,
	}
}

// Paper returns a scale closer to the paper's runs (minutes, not hours).
func Paper() Scale {
	return Scale{
		NumOSDs:   16,
		BlockSize: 1 << 20,
		FileSize:  128 << 20,
		Ops:       60_000,
		Rate:      600_000,
		Clients:   []int{4, 8, 16, 32, 64},
		ReplayCli: 16,
		UnitSize:  4 << 20,
		MaxUnits:  4,
		Pools:     4,
		Workers:   4,
		Seed:      1,
	}
}

// Report is a rendered experiment result.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the report as an aligned text table.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(r.Header, "\t"))
	for _, row := range r.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the report to a string.
func (r *Report) String() string {
	var sb strings.Builder
	r.Fprint(&sb)
	return sb.String()
}

// runConfig is one cluster+replay execution.
type runConfig struct {
	Method  string
	K, M    int
	Trace   *trace.Trace
	Scale   Scale
	HDD     bool
	Mutate  func(*update.Config) // optional feature-gate tweaks
	NoFlush bool                 // skip the final flush (throughput-only runs)
	// RecoveryWorkers is the cluster's rebuild parallelism (<= 0 selects
	// ecfs.DefaultRecoveryWorkers).
	RecoveryWorkers int
}

// runResult captures the measurements of one execution.
type runResult struct {
	Replay   *trace.ReplayResult
	MaxBusy  time.Duration // bottleneck resource busy time after settle
	Device   device.Stats  // post-flush unless NoFlush
	Traffic  int64         // OSD-to-OSD bytes, post-flush unless NoFlush
	Layers   map[string]logpool.Stats
	Memory   int64 // resident log buffers (TSUE)
	Stalls   int64
	Recycled int64
}

// settler lets the harness wait for real-time recycling to quiesce.
type settler interface{ Settle() }

// layered exposes per-layer log stats (TSUE).
type layered interface {
	LayerStats() map[string]logpool.Stats
	MemoryBytes() int64
}

func (rc runConfig) clusterOptions() ecfs.Options {
	s := rc.Scale
	cfg := update.DefaultConfig()
	cfg.UnitSize = s.UnitSize
	cfg.MaxUnits = s.MaxUnits
	cfg.Pools = s.Pools
	cfg.Workers = s.Workers
	// PL-family logs defer recycling until this much space is consumed
	// ("PL's extensive parity log space allows recycling to be
	// indefinitely delayed", §5.2) — generous, but finite.
	cfg.RecycleThreshold = 64 * s.UnitSize
	cfg.ReservedSpace = maxI64(s.UnitSize/16, 4<<10)
	cfg.CollectorUnitSize = s.UnitSize / 2
	opts := ecfs.Options{
		NumOSDs:   s.NumOSDs,
		K:         rc.K,
		M:         rc.M,
		BlockSize: s.BlockSize,
		Method:    rc.Method,
		Device:    device.ChameleonSSD(),
		Net:       netsim.Ethernet25G(),
		Kind:      erasure.Vandermonde,

		RecoveryWorkers: rc.RecoveryWorkers,
	}
	if rc.HDD {
		opts.Device = device.Datacenter2TBHDD()
		opts.Net = netsim.Infiniband40G()
		// HDD profile (§5.4): 3 DataLog copies, DeltaLog disabled.
		cfg.DataLogReplicas = 2
		cfg.UseDeltaLog = false
	}
	if rc.Mutate != nil {
		rc.Mutate(&cfg)
	}
	opts.Strategy = &cfg
	return opts
}

// run executes one configuration end to end.
func run(ctx context.Context, rc runConfig) (*runResult, error) {
	c, err := ecfs.NewCluster(rc.clusterOptions())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	rep := trace.NewReplayer(c, rc.Scale.ReplayCli)
	f, err := rep.Prepare(ctx, rc.Trace.Name, rc.Trace.FileSize)
	if err != nil {
		return nil, err
	}
	res, err := rep.Run(ctx, rc.Trace, f)
	if err != nil {
		return nil, err
	}
	settleCluster(c)

	out := &runResult{Replay: res}
	out.MaxBusy = maxBusyOf(c)
	for _, o := range c.OSDs {
		if l, ok := o.Strategy().(layered); ok {
			out.Memory += l.MemoryBytes()
			for name, st := range l.LayerStats() {
				if out.Layers == nil {
					out.Layers = make(map[string]logpool.Stats)
				}
				out.Layers[name] = addStats(out.Layers[name], st)
				out.Stalls += st.Stalls
				out.Recycled += st.UnitsRecycled
			}
		}
	}
	if !rc.NoFlush {
		if err := c.Flush(ctx); err != nil {
			return nil, err
		}
	}
	out.Device = c.DeviceStats()
	out.Traffic = c.OSDTraffic()
	return out, nil
}

func settleCluster(c *ecfs.Cluster) {
	for _, o := range c.Alive() {
		if s, ok := o.Strategy().(settler); ok {
			s.Settle()
		}
	}
}

// snapshotBusy records every resource's busy time.
func snapshotBusy(c *ecfs.Cluster) []time.Duration {
	return sim.SnapshotBusy(c.Resources())
}

// maxBusyDelta returns the largest per-resource busy increase since the
// snapshot. Resources provisioned after the snapshot (new client NICs)
// count in full.
func maxBusyDelta(c *ecfs.Cluster, before []time.Duration) time.Duration {
	return sim.MaxBusyDelta(c.Resources(), before)
}

func maxBusyOf(c *ecfs.Cluster) time.Duration {
	return sim.MaxBusyDelta(c.Resources(), nil)
}

// iops derives throughput for a client count from the stored bottleneck:
// clients issue synchronously, so they cap at C/avgLatency; the cluster
// caps at its busiest resource.
func (r *runResult) iops(clients int) float64 {
	ops := r.Replay.Ops
	if ops == 0 {
		return 0
	}
	clientTime := time.Duration(ops) * r.Replay.AvgLatency / time.Duration(maxI(clients, 1))
	bound := r.MaxBusy
	if clientTime > bound {
		bound = clientTime
	}
	if bound <= 0 {
		return 0
	}
	return float64(ops) / bound.Seconds()
}

func addStats(a, b logpool.Stats) logpool.Stats {
	a.AppendedEntries += b.AppendedEntries
	a.AppendedBytes += b.AppendedBytes
	a.RecycledExtents += b.RecycledExtents
	a.RecycledBytes += b.RecycledBytes
	a.UnitsRecycled += b.UnitsRecycled
	a.UnitsAllocated += b.UnitsAllocated
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
	a.AppendCost += b.AppendCost
	a.BufferTime += b.BufferTime
	a.RecycleCost += b.RecycleCost
	a.RecycleCount += b.RecycleCount
	a.Stalls += b.Stalls
	a.StallTime += b.StallTime
	return a
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// makeTrace builds the named workload at this scale.
func makeTrace(name string, s Scale) (*trace.Trace, error) {
	switch name {
	case "ali", "ali-cloud":
		t := trace.AliCloud(s.FileSize, s.Ops, s.Seed)
		retime(t, s.Rate)
		return t, nil
	case "ten", "ten-cloud":
		t := trace.TenCloud(s.FileSize, s.Ops, s.Seed)
		retime(t, s.Rate)
		return t, nil
	default:
		if t, ok := trace.MSR(name, s.FileSize, s.Ops, s.Seed); ok {
			retime(t, s.Rate)
			return t, nil
		}
		return nil, fmt.Errorf("bench: unknown trace %q", name)
	}
}

// retime rewrites arrival timestamps for the scale's rate and clamps
// request sizes to the volume.
func retime(t *trace.Trace, rate float64) {
	if rate <= 0 {
		return
	}
	interval := time.Duration(float64(time.Second) / rate)
	for i := range t.Ops {
		t.Ops[i].At = time.Duration(i+1) * interval
	}
}

// fmtK renders a float as thousands with one decimal (paper axes are
// "IOPS x1000").
func fmtK(v float64) string { return fmt.Sprintf("%.1f", v/1000) }

// fmtGB renders bytes as decimal gigabytes.
func fmtGB(b int64) string { return fmt.Sprintf("%.2f", float64(b)/1e9) }

// fmtMB renders bytes as mebibytes.
func fmtMB(b int64) string { return fmt.Sprintf("%.0f", float64(b)/(1<<20)) }

// Experiments maps experiment ids to their generators. Every generator
// takes a context honored between (and, through the replayer, within)
// its cluster runs, so a cancelled ctx aborts an in-flight experiment.
var Experiments = map[string]func(context.Context, Scale) (*Report, error){
	"fig5":   Fig5,
	"fig6a":  Fig6a,
	"fig6b":  Fig6b,
	"fig7":   Fig7,
	"table1": Table1,
	"table2": Table2,
	"fig8a":  Fig8a,
	"fig8b":  Fig8b,
}

// Order lists experiment ids in the paper's order.
var Order = []string{"fig5", "fig6a", "fig6b", "fig7", "table1", "table2", "fig8a", "fig8b"}

// AblationRun replays a trace on a fresh cluster with a mutated strategy
// configuration and returns the modeled aggregate IOPS at the scale's
// largest client count. Exported for the repository's ablation
// benchmarks (bench_test.go).
func AblationRun(ctx context.Context, method string, k, m int, tr *trace.Trace, s Scale, mutate func(*update.Config)) (float64, error) {
	res, err := run(ctx, runConfig{Method: method, K: k, M: m, Trace: tr, Scale: s, NoFlush: true, Mutate: mutate})
	if err != nil {
		return 0, err
	}
	clients := 64
	if len(s.Clients) > 0 {
		clients = s.Clients[len(s.Clients)-1]
	}
	return res.iops(clients), nil
}
