package ecfs

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/erasure"
	"repro/internal/mdslog"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// Options configures an in-process cluster.
type Options struct {
	NumOSDs   int
	K, M      int
	BlockSize int
	Method    string // "fo", "fl", "pl", "plr", "parix", "cord", "tsue"
	Device    device.Profile
	Net       netsim.Profile
	Kind      erasure.MatrixKind
	// RecoveryWorkers is the number of stripes Recover rebuilds in
	// parallel; <= 0 selects DefaultRecoveryWorkers.
	RecoveryWorkers int
	// Update strategy tunables; zero value uses update.DefaultConfig()
	// with BlockSize applied.
	Strategy *update.Config
	// DataDir selects the durable per-OSD storage engine: each OSD keeps
	// its blocks, log segments and placement metadata under
	// DataDir/osd<id> and recovers them on reopen (see RestartOSD).
	// Empty (the default) keeps every OSD in memory.
	DataDir string
	// MDSDataDir selects the durable MDS: the namespace op log and
	// snapshot live under this directory, every namespace mutation is
	// logged before it is acknowledged, and a kill -9'd MDS reopens its
	// directory serving the same namespace (see CrashMDS/RestartMDS).
	// Empty (the default) keeps the MDS in memory. Independent of
	// DataDir — either plane can be durable on its own.
	MDSDataDir string
}

// DefaultOptions mirrors the paper's SSD testbed: 16 OSD nodes, 25 Gb/s
// Ethernet, RS(6,4), 1 MiB blocks, TSUE.
func DefaultOptions() Options {
	return Options{
		NumOSDs:   16,
		K:         6,
		M:         4,
		BlockSize: 1 << 20,
		Method:    "tsue",
		Device:    device.ChameleonSSD(),
		Net:       netsim.Ethernet25G(),
		Kind:      erasure.Vandermonde,

		RecoveryWorkers: DefaultRecoveryWorkers,
	}
}

// Cluster is a fully assembled in-process ECFS deployment.
type Cluster struct {
	Opts    Options
	Net     *netsim.Network
	Tr      *transport.Inproc
	MDS     *MDS
	OSDs    []*OSD
	code    *erasure.Code
	cfg     update.Config // resolved strategy config every OSD was built with
	nextCli atomic.Int32  // next client node id offset from ClientIDBase

	// handleCli is the shared client behind OpenFile handles (lazily
	// provisioned; Client is safe for concurrent use).
	handleMu  sync.Mutex
	handleCli *Client

	failMu sync.Mutex
	failed map[wire.NodeID]bool
}

// NewCluster builds and wires a cluster.
func NewCluster(opts Options) (*Cluster, error) {
	if opts.NumOSDs < opts.K+opts.M {
		return nil, fmt.Errorf("ecfs: %d OSDs < K+M = %d", opts.NumOSDs, opts.K+opts.M)
	}
	if opts.Method == "" {
		opts.Method = "tsue"
	}
	code, err := erasure.New(opts.K, opts.M, opts.Kind)
	if err != nil {
		return nil, err
	}
	cfg := update.DefaultConfig()
	if opts.Strategy != nil {
		cfg = *opts.Strategy
	}
	cfg.BlockSize = opts.BlockSize

	nw := netsim.New(opts.Net)
	tr := transport.NewInproc(nw)
	c := &Cluster{
		Opts: opts, Net: nw, Tr: tr, code: code, cfg: cfg,
		failed: make(map[wire.NodeID]bool),
	}

	ids := make([]wire.NodeID, opts.NumOSDs)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	mds, err := c.openMDS(ids)
	if err != nil {
		return nil, err
	}
	c.MDS = mds
	mds.SetBlockSize(opts.BlockSize)
	tr.Register(wire.MDSNode, mds.Handler)

	for _, id := range ids {
		osd, err := NewOSDAt(id, opts.Device, tr.Caller(id), opts.Method, cfg, opts.Kind, c.osdDataDir(id))
		if err != nil {
			return nil, err
		}
		c.OSDs = append(c.OSDs, osd)
		tr.Register(id, osd.Handler)
	}
	// The repair scheduler's foreground clock reads the cluster's
	// resources, and its budget ledger the network's tagged rebuild and
	// drain byte counters (priced bytes — fetches, stores and fences all
	// count against the cap); configure both once everything that
	// charges them exists. The cluster starts uncapped (SetRebuildCap).
	sched := mds.Scheduler()
	sched.Configure(c.resources(), 0)
	sched.SetTrafficSource(c.RebuildTraffic)
	// Segment compaction is admitted through the scheduler so it
	// shares the rebuild budget instead of competing unaccounted.
	for _, o := range c.OSDs {
		c.startCompactor(o)
	}
	return c, nil
}

// openMDS builds the cluster's metadata server with DefaultMDSShards
// namespace shards: in-memory by default, or reopened from
// Options.MDSDataDir — a directory that already holds a namespace
// serves it as-is (same geometry required), so a restarted cluster
// keeps its files.
func (c *Cluster) openMDS(ids []wire.NodeID) (*MDS, error) {
	if c.Opts.MDSDataDir == "" {
		return NewMDS(ids, c.Opts.K, c.Opts.M)
	}
	return OpenDurableMDS(c.Opts.MDSDataDir, ids, c.Opts.K, c.Opts.M, DefaultMDSShards, mdslog.Options{})
}

// CrashMDS simulates a process kill of the durable MDS: the op log
// freezes exactly at what write(2) saw (no shutdown checkpoint), the
// transport stops routing to it, and every in-flight or later metadata
// call fails as unreachable until RestartMDS. Clients ride their
// resolver single-flight through the outage. Refused for an in-memory
// MDS — crashing it would lose the namespace.
func (c *Cluster) CrashMDS() error {
	if !c.MDS.Durable() {
		return fmt.Errorf("ecfs: CrashMDS needs Options.MDSDataDir: an in-memory namespace cannot be recovered")
	}
	c.Tr.Deregister(wire.MDSNode)
	c.MDS.Crash()
	c.MDS.Log().Close()
	return nil
}

// RestartMDS reopens the MDS from its data directory — snapshot load,
// op-log replay, torn tail discarded — and returns it to service under
// the same transport node. The repair scheduler survives as an object
// (its rebuild ledger and registered queues are process state, not
// namespace state), so budget accounting continues across the restart.
func (c *Cluster) RestartMDS() (*MDS, error) {
	if c.Opts.MDSDataDir == "" {
		return nil, fmt.Errorf("ecfs: RestartMDS needs Options.MDSDataDir")
	}
	old := c.MDS
	old.Crash()
	if l := old.Log(); l != nil {
		l.Close()
	}
	ids := make([]wire.NodeID, c.Opts.NumOSDs)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	md, err := c.openMDS(ids)
	if err != nil {
		return nil, err
	}
	md.SetBlockSize(c.Opts.BlockSize)
	md.AdoptScheduler(old.Scheduler())
	c.MDS = md
	c.Tr.Register(wire.MDSNode, md.Handler)
	return md, nil
}

// osdDataDir maps a node id to its on-disk home, or "" for in-memory
// clusters.
func (c *Cluster) osdDataDir(id wire.NodeID) string {
	if c.Opts.DataDir == "" {
		return ""
	}
	return filepath.Join(c.Opts.DataDir, fmt.Sprintf("osd%d", id))
}

// startCompactor attaches the cluster's repair scheduler to a durable
// OSD's background segment compactor. In-memory OSDs are a no-op.
func (c *Cluster) startCompactor(o *OSD) {
	if o.eng == nil {
		return
	}
	sched := c.MDS.Scheduler()
	o.eng.StartCompactor(func(ctx context.Context, bytes int64) error {
		return sched.AdmitMaintenance(ctx, bytes)
	}, 0)
}

// RebuildTraffic returns the cluster's tagged repair-machinery priced
// bytes (rebuild + drain classes) — the single definition of the
// ledger the repair scheduler's budget meters and the benchmark's
// repair_MBps column reports.
func (c *Cluster) RebuildTraffic() int64 {
	return c.Net.TrafficByClass(sim.ClassRebuild) + c.Net.TrafficByClass(sim.ClassDrain)
}

// MustNewCluster panics on configuration errors.
func MustNewCluster(opts Options) *Cluster {
	c, err := NewCluster(opts)
	if err != nil {
		panic(err)
	}
	return c
}

// NewClient provisions a client with a fresh node id.
func (c *Cluster) NewClient() *Client {
	id := wire.ClientIDBase + wire.NodeID(c.nextCli.Add(1)) - 1
	return NewClient(id, c.Tr.Caller(id), c.code, c.Opts.BlockSize)
}

// handleClient returns the shared client behind file handles.
func (c *Cluster) handleClient() *Client {
	c.handleMu.Lock()
	defer c.handleMu.Unlock()
	if c.handleCli == nil {
		c.handleCli = c.NewClient()
	}
	return c.handleCli
}

// OpenFile opens-or-creates a file and returns a *File handle bound to
// ctx, on a client the cluster shares between the handles it hands out.
// The handle implements io.ReaderAt, io.WriterAt and io.Closer, plus
// UpdateAt for two-stage TSUE updates. Callers that need a client of
// their own (its own node id, NIC and placement cache) use
// NewClient().Open.
func (c *Cluster) OpenFile(ctx context.Context, name string) (*File, error) {
	return c.handleClient().Open(ctx, name)
}

// Code returns the cluster's RS code.
func (c *Cluster) Code() *erasure.Code { return c.code }

// Scheduler returns the cluster-level repair scheduler (owned by the
// MDS) that admits every repair/drain stripe job against the rebuild
// budget and routes read-through-repair hints across concurrent
// victims.
func (c *Cluster) Scheduler() *RepairScheduler { return c.MDS.Scheduler() }

// SetRebuildCap sets the cluster rebuild-bandwidth cap (decimal MB per
// virtual second of foreground time; 0, the default, removes it) for
// all subsequent repair/drain admissions, and restarts the budget's
// zero point. It is the one way to cap rebuild traffic; the repair
// scheduler owns the live cap.
func (c *Cluster) SetRebuildCap(maxMBps float64) {
	c.MDS.Scheduler().SetRebuildCap(maxMBps)
}

// OSD returns the OSD with the given node id, or nil.
func (c *Cluster) OSD(id wire.NodeID) *OSD {
	for _, o := range c.OSDs {
		if o.id == id {
			return o
		}
	}
	return nil
}

// Alive returns the OSDs that have not been failed.
func (c *Cluster) Alive() []*OSD {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	out := make([]*OSD, 0, len(c.OSDs))
	for _, o := range c.OSDs {
		if !c.failed[o.id] {
			out = append(out, o)
		}
	}
	return out
}

// deadSet snapshots the failed node set, with failed forced in (recovery
// may start before FailOSD has been called for the victim).
func (c *Cluster) deadSet(failed wire.NodeID) map[wire.NodeID]bool {
	out := c.deadSnapshot()
	out[failed] = true
	return out
}

// deadSnapshot snapshots the failed node set as-is (drain must not force
// its live source node in).
func (c *Cluster) deadSnapshot() map[wire.NodeID]bool {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	out := make(map[wire.NodeID]bool, len(c.failed)+1)
	for id := range c.failed {
		out[id] = true
	}
	return out
}

// Flush drains every strategy's logs cluster-wide, phase by phase, so all
// asynchronous update state reaches the data and parity blocks. A
// cancelled ctx aborts between per-node drain RPCs.
func (c *Cluster) Flush(ctx context.Context) error {
	dead := c.MDS.DeadNodes()
	payload := encodeDeadList(dead)
	for phase := 1; phase <= update.DrainPhases; phase++ {
		for _, o := range c.Alive() {
			resp, err := c.Tr.Caller(wire.MDSNode).Call(ctx, o.id, &wire.Msg{Kind: wire.KDrainLogs, Flag: uint8(phase), Data: payload})
			if err != nil {
				return err
			}
			if err := resp.Error(); err != nil {
				return err
			}
		}
	}
	return nil
}

// FailOSD simulates a node failure: the OSD stops answering, the MDS
// marks it dead and evicts it from the placement pool so no *new*
// stripe is placed on a node that cannot serve it (Reinstate re-admits
// it). Exception: a pool already at its K+M minimum cannot shrink, so
// on a minimum-size cluster new placements may still reference the dead
// node until a replacement joins (see MDS.RemoveNode). Its device and
// store contents are considered lost.
func (c *Cluster) FailOSD(id wire.NodeID) {
	c.failMu.Lock()
	c.failed[id] = true
	c.failMu.Unlock()
	c.Tr.Deregister(id)
	c.MDS.MarkDead(id)
	c.MDS.RemoveNode(id)
	if o := c.OSD(id); o != nil {
		// The node stops before anything is rebuilt: Crash closes its
		// strategy, whose recyclers finish the log units already sealed
		// and exit, so no late delta of the dead node races the rebuild.
		// A durable node's disk is gone with it: wipe the directory so a
		// same-id replacement starts empty, as the rebuild path assumes.
		o.Crash()
		if o.eng != nil {
			os.RemoveAll(c.osdDataDir(id))
		}
	}
}

// CrashOSD simulates a process kill of a durable OSD: it stops
// answering and the MDS marks it dead, but — unlike FailOSD — its disk
// state survives and the node is NOT evicted from the placement pool,
// so no placement epochs are bumped and stripes untouched during the
// outage need no rebuild when the node returns via RestartOSD.
func (c *Cluster) CrashOSD(id wire.NodeID) {
	c.failMu.Lock()
	c.failed[id] = true
	c.failMu.Unlock()
	c.Tr.Deregister(id)
	c.MDS.MarkDead(id)
	if o := c.OSD(id); o != nil {
		o.Crash()
	}
}

// ResilverResult reports what a restarted OSD did with its local state.
type ResilverResult struct {
	Kept    int // stripes whose local copy was still current
	Rebuilt int // stripes rebuilt from surviving members
	Dropped int // local blocks no longer placed on this node
}

// Resilver reconciles a restarted durable OSD's recovered local state
// against the MDS: stripes whose persisted placement epoch is at least
// the MDS's are kept as-is (the fast path that makes kill-restart cheap
// — zero traffic for anything untouched during the outage); stripes the
// cluster moved on from (a repair or drain bumped their epoch while the
// node was down) are rebuilt in place by RepairNode's rebuild, through
// the repair scheduler; and local blocks the MDS no longer places here
// at all are dropped. If stale stripes cannot be rebuilt, Resilver
// returns a *DataLossError counting every one of them and drops
// nothing.
func (c *Cluster) Resilver(ctx context.Context, id wire.NodeID) (*ResilverResult, error) {
	o := c.OSD(id)
	res := &ResilverResult{}
	if o == nil || o.eng == nil {
		return res, nil
	}
	refs := c.MDS.StripesOnSorted(id)
	var stale []StripeRef
	for _, ref := range refs {
		ep, ok := o.eng.EpochOf(ref.Ino, ref.Stripe)
		if (ok && ep >= ref.Loc.Epoch) || (!ok && ref.Loc.Epoch == 0) {
			res.Kept++
			continue
		}
		stale = append(stale, ref)
	}
	if len(stale) > 0 {
		// The recovery rebuild with the node as its own victim, so the
		// stale local copy never sources itself: same id, so nothing is
		// rebound, and no log drain around it.
		opts := c.repairOptions(false)
		opts.Down = c.deadSnapshot()
		opts.Flush = nil
		run, err := startRepair(ctx, c.MDS, opts)
		if err != nil {
			return res, err
		}
		rec, err := run.rebuild(ctx, c.Tr.Caller(wire.MDSNode), c.code, id, o, stale)
		if rec != nil {
			res.Rebuilt = rec.Blocks
		}
		if err != nil {
			return res, err
		}
	}
	// Drop blocks the MDS no longer places on this node (the stripe was
	// rebound elsewhere while the node was down).
	for _, b := range o.store.Blocks() {
		loc, err := c.MDS.Lookup(b.Ino, b.Stripe)
		if err != nil || int(b.Idx) >= len(loc.Nodes) || loc.Nodes[b.Idx] != id {
			if err := o.store.Delete(b); err != nil {
				return res, fmt.Errorf("ecfs: resilver osd %d: drop %v: %w", id, b, err)
			}
			res.Dropped++
		}
	}
	return res, nil
}

// RestartOSD brings a crashed durable OSD back under the same id: a
// fresh OSD reopens the node's data directory (WAL redo + segment
// replay happen in NewOSDAt), rejoins the cluster in the victim's
// place, and resilvers against the MDS. The returned result reports how
// much local state survived; for an outage during which nothing wrote
// to the node's stripes, Rebuilt is zero.
func (c *Cluster) RestartOSD(ctx context.Context, id wire.NodeID) (*OSD, *ResilverResult, error) {
	repl, err := c.SpawnOSD(id)
	if err != nil {
		return nil, nil, err
	}
	c.Reinstate(repl)
	c.startCompactor(repl)
	res, err := c.Resilver(ctx, id)
	if err != nil {
		return repl, res, err
	}
	return repl, res, nil
}

// AddOSD admits an OSD to the cluster under a fresh node id: the
// transport handler is registered, the node joins the MDS placement
// pool (so it can be a rebind target and host future placements), and a
// heartbeat is reported. This is how a replacement with a *different*
// id than the victim joins before Recover rebinds stripes onto it. It
// is Reinstate under a name that reads as admission.
func (c *Cluster) AddOSD(osd *OSD) { c.Reinstate(osd) }

// SpawnOSD builds a fresh OSD under the given node id with exactly the
// cluster's construction-time configuration (device profile, update
// strategy, erasure kind) — the replacement-node factory the scenario
// harness and operator tooling use before AddOSD/Recover. The OSD is
// not registered anywhere; pass it to AddOSD (fresh id) or Reinstate
// (same id) to admit it.
func (c *Cluster) SpawnOSD(id wire.NodeID) (*OSD, error) {
	return NewOSDAt(id, c.Opts.Device, c.Tr.Caller(id), c.Opts.Method, c.cfg, c.Opts.Kind, c.osdDataDir(id))
}

// MaxNodeID returns the largest OSD node id currently registered —
// fresh replacement ids are allocated above it.
func (c *Cluster) MaxNodeID() wire.NodeID {
	var m wire.NodeID
	for _, o := range c.OSDs {
		if o.id > m {
			m = o.id
		}
	}
	return m
}

// Reinstate returns a replacement OSD to service under its node id: the
// transport handler is (re-)registered, the OSD list entry swapped (the
// failed instance's background workers are stopped) or appended for a
// fresh id, the node (re-)admitted to the MDS placement pool, the
// failure flag cleared, and a heartbeat reported. The usual same-id
// sequence is FailOSD, NewOSD under the same id, Recover, Reinstate; a
// fresh-id replacement uses AddOSD, Recover instead and needs no
// Reinstate.
func (c *Cluster) Reinstate(repl *OSD) {
	c.Tr.Register(repl.id, repl.Handler)
	found := false
	for i, o := range c.OSDs {
		if o.id == repl.id {
			if o != repl {
				o.Close()
			}
			c.OSDs[i] = repl
			found = true
		}
	}
	if !found {
		c.OSDs = append(c.OSDs, repl)
	}
	c.MDS.AddNode(repl.id)
	c.failMu.Lock()
	delete(c.failed, repl.id)
	c.failMu.Unlock()
	c.MDS.Heartbeat(repl.id, time.Now())
}

// resources collects every accounted resource in the cluster.
func (c *Cluster) resources() []*sim.Resource {
	out := make([]*sim.Resource, 0, 2*len(c.OSDs))
	for _, o := range c.OSDs {
		out = append(out, o.dev.Resource())
	}
	out = append(out, c.Net.Resources()...)
	return out
}

// Resources exposes the cluster's accounted resources for throughput
// derivation.
func (c *Cluster) Resources() []*sim.Resource { return c.resources() }

// DeviceStats sums device workload across all OSDs (Table 1 columns).
func (c *Cluster) DeviceStats() device.Stats {
	var s device.Stats
	for _, o := range c.OSDs {
		s = s.Add(o.dev.Stats())
	}
	return s
}

// OSDTraffic returns the total bytes sent by OSD NICs — the paper's
// NETWORK TRAFFIC column (inter-OSD update traffic; client ingress is
// identical across methods and excluded).
func (c *Cluster) OSDTraffic() int64 {
	var n int64
	for _, nic := range c.Net.NICs() {
		if isOSDNIC(nic.Name(), len(c.OSDs)) {
			n += nic.SentBytes()
		}
	}
	return n
}

func isOSDNIC(name string, osds int) bool {
	var id int
	if _, err := fmt.Sscanf(name, "node%d", &id); err != nil {
		return false
	}
	return id >= 1 && id <= osds
}

// Close shuts down every OSD's background workers and checkpoints a
// durable MDS (clean shutdown — the next open replays nothing).
func (c *Cluster) Close() {
	for _, o := range c.OSDs {
		o.Close()
	}
	c.MDS.Close()
}

// Scrub verifies parity consistency of every placed stripe of every file
// — the background integrity check a production cluster runs. It returns
// the number of stripes checked and the first inconsistency found.
// Pending logs are legal during a scrub only for methods whose reads are
// log-aware; call Flush first for a strict check.
func (c *Cluster) Scrub() (int, error) {
	checked := 0
	for _, ino := range c.MDS.Files() {
		stripes := c.MDS.Stripes(ino)
		if err := c.verifyStripes(ino, nil); err != nil {
			return checked, err
		}
		checked += stripes
	}
	return checked, nil
}

// VerifyStripes checks every placed stripe of f's file: data blocks
// versus the expected mirror (nil skips that comparison) and parity
// consistency via re-encode. It reads the OSDs' stores directly and
// returns the first inconsistency found. Call Flush first.
func (c *Cluster) VerifyStripes(f *File, mirror []byte) error { return c.verifyStripes(f.ino, mirror) }

func (c *Cluster) verifyStripes(ino uint64, mirror []byte) error {
	span := c.Opts.K * c.Opts.BlockSize
	stripes := c.MDS.Stripes(ino)
	for s := 0; s < stripes; s++ {
		loc, err := c.MDS.Lookup(ino, uint32(s))
		if err != nil {
			return err
		}
		data := make([][]byte, c.Opts.K)
		for i := 0; i < c.Opts.K; i++ {
			b := wire.BlockID{Ino: ino, Stripe: uint32(s), Idx: uint8(i)}
			osd := c.OSD(loc.Nodes[i])
			if osd == nil {
				return fmt.Errorf("ecfs: verify: node %d missing", loc.Nodes[i])
			}
			snap, ok := osd.store.Snapshot(b)
			if !ok {
				return fmt.Errorf("ecfs: verify: block %v missing", b)
			}
			if len(snap) != c.Opts.BlockSize {
				return fmt.Errorf("ecfs: verify: block %v has %d bytes", b, len(snap))
			}
			data[i] = snap
			if mirror != nil {
				lo := s*span + i*c.Opts.BlockSize
				for j := 0; j < c.Opts.BlockSize; j++ {
					var want byte
					if lo+j < len(mirror) {
						want = mirror[lo+j]
					}
					if snap[j] != want {
						return fmt.Errorf("ecfs: verify: data mismatch at stripe %d block %d byte %d: got %d want %d", s, i, j, snap[j], want)
					}
				}
			}
		}
		parity := make([][]byte, c.Opts.M)
		for j := 0; j < c.Opts.M; j++ {
			b := wire.BlockID{Ino: ino, Stripe: uint32(s), Idx: uint8(c.Opts.K + j)}
			osd := c.OSD(loc.Nodes[c.Opts.K+j])
			if osd == nil {
				return fmt.Errorf("ecfs: verify: node %d missing", loc.Nodes[c.Opts.K+j])
			}
			snap, ok := osd.store.Snapshot(b)
			if !ok {
				return fmt.Errorf("ecfs: verify: parity %v missing", b)
			}
			parity[j] = snap
		}
		ok, err := c.code.Verify(data, parity)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("ecfs: verify: stripe %d parity inconsistent", s)
		}
	}
	return nil
}
