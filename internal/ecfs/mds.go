// Package ecfs is the erasure-coded cluster file system of the paper
// (§4, Fig. 4): a metadata server (MDS) tracking files, stripe placement
// and node liveness; object storage device servers (OSDs) hosting data
// and parity blocks behind a pluggable update strategy; and a client that
// encodes writes, routes updates, and reads with read-your-writes
// semantics. Recovery reconstructs a failed OSD's blocks from stripe
// survivors after logs are drained.
//
// # Metadata scale: shards, the reverse index, and placement epochs
//
// The MDS namespace is partitioned into independently locked shards
// (names and inodes hash to a shard), so metadata operations on
// different files never contend. Alongside the namespace it maintains a
// node→stripe reverse index, updated incrementally whenever a placement
// is created or rebound; StripesOn — the recovery work list — reads one
// node's bucket instead of scanning the whole namespace, so its cost is
// proportional to the blocks the node actually hosts, not to the total
// file count.
//
// Every placement carries an epoch (wire.StripeLoc.Epoch). The
// invariants are:
//
//   - A placement's Nodes slice is immutable once published; rebinding
//     a stripe onto a replacement node installs a fresh StripeLoc with
//     Epoch+1. Cached copies therefore never mutate under a reader.
//   - The MDS is the epoch authority. OSDs learn epochs from the
//     placements that reach them (writes, updates, recovery's
//     KEpochUpdate broadcast) and reject client requests carrying an
//     older epoch with a structured wire.StatusStaleEpoch reply, which
//     makes a client with a stale cache re-resolve and retry instead of
//     silently writing through a dead placement.
//   - Epoch checks happen only at the client→OSD boundary (KWriteBlock,
//     KUpdate). Strategy-internal forwards inherit the already-validated
//     placement of the triggering request, so a mid-flight epoch bump
//     cannot split one update across two placements.
package ecfs

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"repro/internal/mdslog"
	"repro/internal/wire"
)

// DefaultMDSShards is the namespace shard count used when none is
// configured. Shard counts are rounded up to a power of two.
const DefaultMDSShards = 16

// MDS is the metadata server: namespace, placement, liveness, and the
// node→stripe reverse index that feeds recovery.
type MDS struct {
	k, m int
	// blockSize is the cluster's block size, served to dialing clients
	// through wire.KResolveAddr (0 when never configured — in-process
	// clusters set it from Options, cmd/ecfsd from its -block flag).
	blockSize int

	// topoMu guards the OSD placement pool, which grows when a
	// replacement joins under a fresh node id (AddNode).
	topoMu sync.RWMutex
	osds   []wire.NodeID

	// The namespace is sharded two ways: names hash to a nameShard
	// (name → ino) and inodes hash to an inoShard (ino → placements).
	// Lock order: nameShard.mu → inoShard.mu → revMu → nodeIndex.mu →
	// topoMu; no path acquires them in the reverse direction.
	//
	// Name hashing is deliberately deterministic (FNV-1a, not a
	// per-instance seeded hash): the shard choice decides which ino
	// range a file allocates from, and inos feed stripe placement —
	// identical clusters must place identically for the harness's
	// determinism guarantees (and the recovery tests) to hold.
	nameShards []*nameShard
	inoShards  []*inoShard

	// rev is the reverse index: for each node, the set of (ino, stripe)
	// whose placement puts a block there, with the block index. It is
	// maintained incrementally on placement creation and rebind, under
	// the owning inoShard's lock, so StripesOn never scans the
	// namespace.
	revMu sync.RWMutex
	rev   map[wire.NodeID]*nodeIndex

	// liveMu guards liveness state, which is touched by heartbeats on
	// every node and must not contend with namespace traffic. addrs is
	// the node address map heartbeats populate (TCP deployments only):
	// the wire.KResolveAddr answer that makes clients self-discovering.
	// addrAt stamps each entry's freshness and addrTTL ages entries out
	// of the served map once a node stops heartbeating (see SetAddrTTL).
	liveMu  sync.Mutex
	beats   map[wire.NodeID]time.Time
	dead    map[wire.NodeID]bool
	addrs   map[wire.NodeID]string
	addrAt  map[wire.NodeID]time.Time
	addrTTL time.Duration

	// sched is the cluster-level repair scheduler every RepairNode /
	// MigrateNode run registers its queue with. wire.KRepairHint
	// messages promote stripes across all active queues through it;
	// wire.KRepairStatus reports their combined pending depth. Created
	// lazily so a bare MDS (TCP deployment) gets an uncapped scheduler
	// with no virtual-time resources.
	schedMu sync.Mutex
	sched   *RepairScheduler

	// draining tracks nodes with a drain in progress. The state
	// distinguishes a drain actively executing (drainActive) from one
	// interrupted by cancellation (drainInterrupted): an interrupted
	// node stays marked so a second Drain resumes without the node
	// transiting back through the placement pool, while a running one
	// rejects a concurrent BeginDrain outright.
	drainMu  sync.Mutex
	draining map[wire.NodeID]drainState

	// log is the mutation op log of a durable MDS (nil in-memory — the
	// default, and the unchanged hot path). Mutators hold gate in shared
	// mode across append+apply; Checkpoint holds it exclusively so the
	// snapshot it serializes matches the log exactly. Set once before
	// the MDS is shared. See mds_durable.go.
	gate sync.RWMutex
	log  *mdslog.Log
}

// drainState is a node's position in the drain lifecycle: absent from
// the draining map (zero value) means no drain, drainActive a
// MigrateNode run currently executing, drainInterrupted a cancelled
// run awaiting resume or AbortDrain.
type drainState uint8

const (
	drainNone drainState = iota
	drainActive
	drainInterrupted
)

type nameShard struct {
	mu    sync.Mutex
	files map[string]uint64
	// Inode allocation is per-shard: shard i of n hands out inos
	// i+1, i+1+n, i+1+2n, ... under its own lock. The ranges are
	// disjoint by construction, so Create performs no cross-shard
	// write at all — the last shared write in the create path
	// (formerly one global atomic counter) is gone.
	idx  uint64 // this shard's position
	step uint64 // total shard count
	next uint64 // allocations performed by this shard
}

type inoShard struct {
	mu   sync.RWMutex
	meta map[uint64]*fileMeta
}

type fileMeta struct {
	name    string
	stripes map[uint32]wire.StripeLoc
}

// stripeKey addresses one placed stripe in the reverse index.
type stripeKey struct {
	ino    uint64
	stripe uint32
}

// nodeIndex is one node's bucket of the reverse index: every stripe
// placing a block on the node, keyed by (ino, stripe) with the block
// index as value (placements use distinct nodes, so a node hosts at
// most one block of a stripe).
type nodeIndex struct {
	mu   sync.Mutex
	refs map[stripeKey]uint8
}

// NewMDS creates a metadata server for a cluster of the given OSDs and
// stripe geometry with DefaultMDSShards namespace shards. It requires
// len(osds) >= k+m so every stripe can place its blocks on distinct
// nodes.
func NewMDS(osds []wire.NodeID, k, m int) (*MDS, error) {
	return NewMDSWithShards(osds, k, m, DefaultMDSShards)
}

// NewMDSWithShards is NewMDS with an explicit namespace shard count
// (rounded up to a power of two; values < 1 select one shard). The
// shard count is the concurrency knob the mds-scale benchmark sweeps.
func NewMDSWithShards(osds []wire.NodeID, k, m, shards int) (*MDS, error) {
	if k < 1 || m < 1 {
		return nil, fmt.Errorf("ecfs: invalid geometry RS(%d,%d)", k, m)
	}
	if len(osds) < k+m {
		return nil, fmt.Errorf("ecfs: %d OSDs cannot host RS(%d,%d) stripes", len(osds), k, m)
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	md := &MDS{
		k: k, m: m,
		osds:       append([]wire.NodeID(nil), osds...),
		nameShards: make([]*nameShard, n),
		inoShards:  make([]*inoShard, n),
		rev:        make(map[wire.NodeID]*nodeIndex, len(osds)),
		beats:      make(map[wire.NodeID]time.Time),
		dead:       make(map[wire.NodeID]bool),
		addrs:      make(map[wire.NodeID]string),
		addrAt:     make(map[wire.NodeID]time.Time),
		draining:   make(map[wire.NodeID]drainState),
	}
	for i := 0; i < n; i++ {
		md.nameShards[i] = &nameShard{files: make(map[string]uint64), idx: uint64(i), step: uint64(n)}
		md.inoShards[i] = &inoShard{meta: make(map[uint64]*fileMeta)}
	}
	for _, id := range osds {
		md.rev[id] = &nodeIndex{refs: make(map[stripeKey]uint8)}
	}
	return md, nil
}

// Geometry returns the cluster's (K, M).
func (m *MDS) Geometry() (int, int) { return m.k, m.m }

// SetBlockSize records the cluster's block size for address-map replies
// (wire.KResolveAddr), so dialing clients self-discover the full cluster
// configuration. Call before serving.
func (m *MDS) SetBlockSize(n int) { m.blockSize = n }

// BlockSize returns the configured block size (0 when unset).
func (m *MDS) BlockSize() int { return m.blockSize }

// RecordAddr stores a node's advertised listen address — normally
// learned from the address heartbeats carry, and set directly for the
// MDS's own listener by cmd/ecfsd.
func (m *MDS) RecordAddr(id wire.NodeID, addr string) {
	if addr == "" {
		return
	}
	m.mutateLock()
	defer m.mutateUnlock()
	m.liveMu.Lock()
	defer m.liveMu.Unlock()
	// Logged on change only — freshness stamps are soft state a
	// restarted MDS re-learns from heartbeats.
	if m.addrs[id] != addr {
		if err := m.logAppend(mdslog.Record{Kind: mdslog.KindAddr, Node: id, Name: addr}); err != nil {
			return
		}
	}
	m.addrs[id] = addr
	m.addrAt[id] = time.Now()
}

// SetAddrTTL ages the served address map: an entry whose owner has
// neither heartbeaten nor re-announced within d is dropped from AddrMap
// (and pruned), so clients re-resolving a node stop being handed the
// last known address of a long-dead process and fall straight through
// to "unknown node" handling instead of redialing it. Tie d to the
// deployment's liveness timeout (a few heartbeat intervals; cmd/ecfsd
// wires -addr-ttl). 0 — the default — disables aging.
func (m *MDS) SetAddrTTL(d time.Duration) {
	m.liveMu.Lock()
	m.addrTTL = d
	m.liveMu.Unlock()
}

// AddrMap snapshots the node address map heartbeats have populated,
// dropping entries older than the configured address TTL.
func (m *MDS) AddrMap() map[wire.NodeID]string {
	m.liveMu.Lock()
	defer m.liveMu.Unlock()
	now := time.Now()
	out := make(map[wire.NodeID]string, len(m.addrs))
	for id, a := range m.addrs {
		if m.addrTTL > 0 {
			fresh := m.addrAt[id]
			if beat, ok := m.beats[id]; ok && beat.After(fresh) {
				fresh = beat
			}
			if now.Sub(fresh) > m.addrTTL {
				// Aged out: prune so the map cannot grow with the
				// addresses of nodes that will never return.
				delete(m.addrs, id)
				delete(m.addrAt, id)
				continue
			}
		}
		out[id] = a
	}
	return out
}

// Shards returns the namespace shard count.
func (m *MDS) Shards() int { return len(m.inoShards) }

func (m *MDS) nameShard(name string) *nameShard {
	h := fnv.New64a()
	h.Write([]byte(name))
	return m.nameShards[h.Sum64()&uint64(len(m.nameShards)-1)]
}

func (m *MDS) inoShard(ino uint64) *inoShard {
	// Fibonacci hashing spreads sequential inodes across shards.
	h := ino * 0x9E3779B97F4A7C15
	return m.inoShards[(h>>32)&uint64(len(m.inoShards)-1)]
}

// Create registers a file and returns its inode number; creating an
// existing name returns the existing ino (open-or-create semantics).
// On a durable MDS the binding is logged before it is applied or
// acknowledged; the error is the op log failing (fail-stop).
func (m *MDS) Create(name string) (uint64, error) {
	m.mutateLock()
	defer m.mutateUnlock()
	ns := m.nameShard(name)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ino, ok := ns.files[name]; ok {
		return ino, nil
	}
	// Allocate from this shard's disjoint ino range (no shared state).
	ino := ns.next*ns.step + ns.idx + 1
	if err := m.logAppend(mdslog.Record{Kind: mdslog.KindCreate, Ino: ino, Name: name}); err != nil {
		return 0, err
	}
	ns.next++
	m.installFile(ns, name, ino)
	return ino, nil
}

// installFile publishes a name → ino binding; the caller holds the name
// shard's lock and has allocated (or replayed) the ino.
func (m *MDS) installFile(ns *nameShard, name string, ino uint64) {
	is := m.inoShard(ino)
	is.mu.Lock()
	is.meta[ino] = &fileMeta{name: name, stripes: make(map[uint32]wire.StripeLoc)}
	is.mu.Unlock()
	ns.files[name] = ino
}

// Lookup resolves (ino, stripe) to its placement, creating the placement
// deterministically on first touch and registering it in the reverse
// index.
func (m *MDS) Lookup(ino uint64, stripe uint32) (wire.StripeLoc, error) {
	is := m.inoShard(ino)
	is.mu.RLock()
	fm := is.meta[ino]
	if fm != nil {
		if loc, ok := fm.stripes[stripe]; ok {
			is.mu.RUnlock()
			return loc, nil
		}
	}
	is.mu.RUnlock()
	if fm == nil {
		return wire.StripeLoc{}, fmt.Errorf("ecfs: unknown ino %d", ino)
	}

	// First-touch bind: a mutation, so it takes the durability gate and
	// logs before publishing (the fast path above stays log-free).
	m.mutateLock()
	defer m.mutateUnlock()
	is.mu.Lock()
	defer is.mu.Unlock()
	fm = is.meta[ino]
	if fm == nil {
		return wire.StripeLoc{}, fmt.Errorf("ecfs: unknown ino %d", ino)
	}
	if loc, ok := fm.stripes[stripe]; ok {
		return loc, nil
	}
	loc := m.place(ino, stripe)
	if err := m.logAppend(mdslog.Record{Kind: mdslog.KindBind, Ino: ino, Stripe: stripe, Epoch: loc.Epoch, Nodes: loc.Nodes}); err != nil {
		return wire.StripeLoc{}, err
	}
	fm.stripes[stripe] = loc
	for idx, node := range loc.Nodes {
		m.indexBlock(node, ino, stripe, uint8(idx))
	}
	return loc, nil
}

// place spreads the K+M blocks of a stripe across distinct OSDs,
// rotating the starting node per (ino, stripe) so load balances.
func (m *MDS) place(ino uint64, stripe uint32) wire.StripeLoc {
	m.topoMu.RLock()
	osds := m.osds
	m.topoMu.RUnlock()
	n := len(osds)
	start := int((ino*2654435761 + uint64(stripe)*40503) % uint64(n))
	nodes := make([]wire.NodeID, m.k+m.m)
	for i := range nodes {
		nodes[i] = osds[(start+i)%n]
	}
	return wire.StripeLoc{Nodes: nodes}
}

// nodeIndexFor returns the reverse-index bucket of a node, creating it
// for nodes that joined after construction (replacements).
func (m *MDS) nodeIndexFor(id wire.NodeID) *nodeIndex {
	m.revMu.RLock()
	ni := m.rev[id]
	m.revMu.RUnlock()
	if ni != nil {
		return ni
	}
	m.revMu.Lock()
	defer m.revMu.Unlock()
	if ni = m.rev[id]; ni == nil {
		ni = &nodeIndex{refs: make(map[stripeKey]uint8)}
		m.rev[id] = ni
	}
	return ni
}

func (m *MDS) indexBlock(node wire.NodeID, ino uint64, stripe uint32, idx uint8) {
	ni := m.nodeIndexFor(node)
	ni.mu.Lock()
	ni.refs[stripeKey{ino, stripe}] = idx
	ni.mu.Unlock()
}

func (m *MDS) unindexBlock(node wire.NodeID, ino uint64, stripe uint32) {
	ni := m.nodeIndexFor(node)
	ni.mu.Lock()
	delete(ni.refs, stripeKey{ino, stripe})
	ni.mu.Unlock()
}

// ErrAlreadyPlaced is wrapped by Rebind when the target node already
// hosts a block of the stripe — placing two blocks on one node would
// halve the stripe's fault tolerance. Callers that rebind in bulk
// (recovery) skip such stripes rather than failing outright.
var ErrAlreadyPlaced = errors.New("node already in placement")

// Rebind moves one block of a placed stripe from node `from` to node
// `to`, bumping the placement epoch — the recovery path that lets a
// stripe be rebuilt onto a replacement with a *different* node id. The
// new placement is returned; the old StripeLoc value is left untouched
// for holders of cached copies, which will be rejected by epoch-aware
// OSDs and re-resolve.
func (m *MDS) Rebind(ino uint64, stripe uint32, from, to wire.NodeID) (wire.StripeLoc, error) {
	m.mutateLock()
	defer m.mutateUnlock()
	is := m.inoShard(ino)
	is.mu.Lock()
	defer is.mu.Unlock()
	fm := is.meta[ino]
	if fm == nil {
		return wire.StripeLoc{}, fmt.Errorf("ecfs: rebind: unknown ino %d", ino)
	}
	loc, ok := fm.stripes[stripe]
	if !ok {
		return wire.StripeLoc{}, fmt.Errorf("ecfs: rebind: stripe %d/%d not placed", ino, stripe)
	}
	idx := -1
	for i, n := range loc.Nodes {
		if n == from {
			idx = i
		}
		if n == to {
			// Refuse to double-place: a node may host at most one
			// block of a stripe (the reverse index and the stripe's
			// fault tolerance both depend on it).
			return wire.StripeLoc{}, fmt.Errorf("ecfs: rebind: node %d already in placement of %d/%d: %w", to, ino, stripe, ErrAlreadyPlaced)
		}
	}
	if idx < 0 {
		return wire.StripeLoc{}, fmt.Errorf("ecfs: rebind: node %d not in placement of %d/%d", from, ino, stripe)
	}
	nodes := append([]wire.NodeID(nil), loc.Nodes...)
	nodes[idx] = to
	nl := wire.StripeLoc{Nodes: nodes, Epoch: loc.Epoch + 1}
	if err := m.logAppend(mdslog.Record{Kind: mdslog.KindRebind, Ino: ino, Stripe: stripe, Epoch: nl.Epoch, Idx: uint8(idx), Node: from, To: to}); err != nil {
		return wire.StripeLoc{}, err
	}
	fm.stripes[stripe] = nl
	m.unindexBlock(from, ino, stripe)
	m.indexBlock(to, ino, stripe, uint8(idx))
	return nl, nil
}

// AddNode admits a node to the placement pool (no-op if present) and
// provisions its reverse-index bucket — how a replacement OSD with a
// fresh id becomes a rebind and placement target. The admission is
// logged only when the node was actually absent.
func (m *MDS) AddNode(id wire.NodeID) {
	m.mutateLock()
	defer m.mutateUnlock()
	m.topoMu.Lock()
	if !poolContains(m.osds, id) {
		if err := m.logAppend(mdslog.Record{Kind: mdslog.KindAddNode, Node: id}); err != nil {
			m.topoMu.Unlock()
			return // fail-stop: not applied, not acknowledged
		}
		m.poolInsertLocked(id)
	}
	m.topoMu.Unlock()
	m.nodeIndexFor(id)
}

// RemoveNode evicts a node from the placement pool so no *new* stripe
// is placed on it — used on node failure and when recovery permanently
// replaces a victim with a fresh node id. Existing placements are
// untouched; recovery rebinds them stripe by stripe. A pool already at
// its K+M minimum is left intact (a stripe must remain placeable), so
// on a minimum-size cluster a dead node stays placeable until a
// replacement joins. The eviction is logged only when the floor check
// allowed it, so replay removes unconditionally.
func (m *MDS) RemoveNode(id wire.NodeID) {
	m.mutateLock()
	defer m.mutateUnlock()
	m.topoMu.Lock()
	defer m.topoMu.Unlock()
	m.removeNodeTopoLocked(id)
}

// removeNodeTopoLocked is RemoveNode's logged body; the caller holds
// topoMu (and the mutation gate).
func (m *MDS) removeNodeTopoLocked(id wire.NodeID) {
	if len(m.osds) <= m.k+m.m {
		return // keep enough nodes to place a stripe
	}
	if !poolContains(m.osds, id) {
		return
	}
	if err := m.logAppend(mdslog.Record{Kind: mdslog.KindRemoveNode, Node: id}); err != nil {
		return
	}
	m.poolFilterLocked(id)
}

func poolContains(pool []wire.NodeID, id wire.NodeID) bool {
	for _, n := range pool {
		if n == id {
			return true
		}
	}
	return false
}

// poolInsertLocked appends a node to the placement pool (caller holds
// topoMu and has checked absence, or tolerates a duplicate check here).
func (m *MDS) poolInsertLocked(id wire.NodeID) {
	if poolContains(m.osds, id) {
		return
	}
	// Copy-on-write: place reads the slice under RLock only.
	m.osds = append(append([]wire.NodeID(nil), m.osds...), id)
}

// poolFilterLocked removes a node from the placement pool (caller holds
// topoMu).
func (m *MDS) poolFilterLocked(id wire.NodeID) {
	out := make([]wire.NodeID, 0, len(m.osds))
	for _, n := range m.osds {
		if n != id {
			out = append(out, n)
		}
	}
	m.osds = out
}

// PickRebindTarget chooses a destination for moving one block of a
// stripe: a live pool node not already in the placement, rotated by
// (ino, stripe) so a drain spreads its blocks across the survivor pool
// instead of piling them onto one node.
func (m *MDS) PickRebindTarget(ino uint64, stripe uint32, loc wire.StripeLoc) (wire.NodeID, error) {
	m.topoMu.RLock()
	osds := m.osds
	m.topoMu.RUnlock()
	in := make(map[wire.NodeID]bool, len(loc.Nodes))
	for _, n := range loc.Nodes {
		in[n] = true
	}
	n := len(osds)
	if n == 0 {
		return 0, fmt.Errorf("ecfs: empty placement pool")
	}
	start := int((ino*2654435761 + uint64(stripe)*40503) % uint64(n))
	// Probe the dead set in place rather than copying it per call: a
	// drain calls this once per migrated stripe.
	m.liveMu.Lock()
	defer m.liveMu.Unlock()
	for i := 0; i < n; i++ {
		cand := osds[(start+i)%n]
		if !in[cand] && !m.dead[cand] {
			return cand, nil
		}
	}
	return 0, fmt.Errorf("ecfs: no live rebind target outside the placement of %d/%d", ino, stripe)
}

// Forget removes a retired node entirely: placement pool, liveness
// state, and its (empty) reverse-index bucket — the final step of a
// decommission. The node must no longer host placements.
func (m *MDS) Forget(id wire.NodeID) {
	m.mutateLock()
	defer m.mutateUnlock()
	m.drainMu.Lock()
	m.topoMu.Lock()
	// One record carries the whole retirement; the pool eviction
	// decision (K+M floor) is captured so replay never re-decides.
	removed := len(m.osds) > m.k+m.m && poolContains(m.osds, id)
	if err := m.logAppend(mdslog.Record{Kind: mdslog.KindForget, Node: id, Removed: removed}); err != nil {
		m.topoMu.Unlock()
		m.drainMu.Unlock()
		return
	}
	if removed {
		m.poolFilterLocked(id)
	}
	m.topoMu.Unlock()
	delete(m.draining, id)
	m.drainMu.Unlock()
	m.forgetSoftState(id)
}

// forgetSoftState clears a retired node's liveness entries and its
// (empty) reverse-index bucket — unlogged state derived afresh on a
// restart, shared by Forget and its replay.
func (m *MDS) forgetSoftState(id wire.NodeID) {
	m.liveMu.Lock()
	delete(m.beats, id)
	delete(m.dead, id)
	delete(m.addrs, id)
	delete(m.addrAt, id)
	m.liveMu.Unlock()
	m.revMu.Lock()
	if ni := m.rev[id]; ni != nil {
		ni.mu.Lock()
		empty := len(ni.refs) == 0
		ni.mu.Unlock()
		if empty {
			delete(m.rev, id)
		}
	}
	m.revMu.Unlock()
}

// Scheduler returns the cluster-level repair scheduler, creating an
// uncapped one on first use. Every RepairNode/MigrateNode run registers
// its queue here; Cluster construction configures it with the cluster's
// resources and rebuild cap.
func (m *MDS) Scheduler() *RepairScheduler {
	m.schedMu.Lock()
	defer m.schedMu.Unlock()
	if m.sched == nil {
		m.sched = NewRepairScheduler(nil, 0)
	}
	return m.sched
}

// promoteRepair moves a pending stripe to the front of whichever active
// repair/drain queue holds it; false when no repair is running or the
// stripe is no longer pending.
func (m *MDS) promoteRepair(ino uint64, stripe uint32) bool {
	return m.Scheduler().Promote(ino, stripe)
}

// RepairPending reports the number of stripes still queued across all
// active repairs/drains, 0 when none is running — the
// wire.KRepairStatus answer.
func (m *MDS) RepairPending() int {
	return m.Scheduler().Pending()
}

// BeginDrain marks a node as actively draining and evicts it from the
// placement pool. resumed reports the pick-up of an earlier
// *interrupted* drain — pool membership is then left exactly as the
// cancelled run put it, so a node never transits back through the pool
// between a Ctrl-C and the Drain that resumes the work. A node
// whose drain is still running is rejected with an error: two engines
// migrating the same stripes would race their rebind/fence/refetch
// sequences, so only an interrupted drain is resumable.
func (m *MDS) BeginDrain(id wire.NodeID) (resumed bool, err error) {
	m.mutateLock()
	defer m.mutateUnlock()
	m.drainMu.Lock()
	defer m.drainMu.Unlock()
	switch m.draining[id] {
	case drainActive:
		return false, fmt.Errorf("ecfs: drain node %d: a drain is already running", id)
	case drainInterrupted:
		if err := m.logAppend(mdslog.Record{Kind: mdslog.KindDrainBegin, Node: id}); err != nil {
			return false, err
		}
		m.draining[id] = drainActive
		return true, nil
	}
	// Fresh drain. The pool eviction decision (K+M floor) is made here,
	// under topoMu, and captured in the single DrainBegin record so
	// replay redoes the whole op without re-deciding.
	m.topoMu.Lock()
	defer m.topoMu.Unlock()
	removed := len(m.osds) > m.k+m.m && poolContains(m.osds, id)
	if err := m.logAppend(mdslog.Record{Kind: mdslog.KindDrainBegin, Node: id, Fresh: true, Removed: removed}); err != nil {
		return false, err
	}
	m.draining[id] = drainActive
	if removed {
		m.poolFilterLocked(id)
	}
	return false, nil
}

// InterruptDrain downgrades a node's running drain to
// interrupted-awaiting-resume — MigrateNode's bookkeeping when a run
// ends on a cancelled context. The node stays out of the placement
// pool; a later BeginDrain resumes it, AbortDrain abandons it.
func (m *MDS) InterruptDrain(id wire.NodeID) {
	m.mutateLock()
	defer m.mutateUnlock()
	m.drainMu.Lock()
	defer m.drainMu.Unlock()
	if m.draining[id] != drainActive {
		return
	}
	if err := m.logAppend(mdslog.Record{Kind: mdslog.KindDrainInterrupt, Node: id}); err != nil {
		return
	}
	m.draining[id] = drainInterrupted
}

// FinishDrain clears a node's draining mark after every stripe has
// migrated. The node stays out of the placement pool — it hosts
// nothing; RemoveOSD retires it, AddNode re-admits it.
func (m *MDS) FinishDrain(id wire.NodeID) {
	m.mutateLock()
	defer m.mutateUnlock()
	m.drainMu.Lock()
	defer m.drainMu.Unlock()
	if m.draining[id] == drainNone {
		return
	}
	if err := m.logAppend(mdslog.Record{Kind: mdslog.KindDrainEnd, Node: id}); err != nil {
		return
	}
	delete(m.draining, id)
}

// AbortDrain abandons an *interrupted* drain: the mark is cleared and
// the node — still hosting its unmigrated stripes — is re-admitted to
// the placement pool, unless it has since been marked dead. A drain
// that is still actively running is left untouched and false is
// returned: re-admitting the node mid-migration would hand the
// engine's own rebind target picker the node it is draining — cancel
// the drain's context first, then abort. Operators reach this through
// Cluster.AbortDrain.
func (m *MDS) AbortDrain(id wire.NodeID) bool {
	m.mutateLock()
	defer m.mutateUnlock()
	m.drainMu.Lock()
	defer m.drainMu.Unlock()
	if m.draining[id] != drainInterrupted {
		return false
	}
	return m.endDrainLocked(id)
}

// failDrain clears a *running* drain's mark and restores the node's
// pool membership — MigrateNode's cleanup when a run it owns ends on a
// hard (non-resumable) failure. Unlike AbortDrain it acts on the
// active state, which only the engine itself may tear down.
func (m *MDS) failDrain(id wire.NodeID) {
	m.mutateLock()
	defer m.mutateUnlock()
	m.drainMu.Lock()
	defer m.drainMu.Unlock()
	m.endDrainLocked(id)
}

// endDrainLocked abandons a drain and restores the node's pool
// membership — unless the node has been marked dead in the meantime (it
// failed mid-drain): placement must never select a dead node, so a dead
// one stays evicted and re-enters via recovery or an explicit AddNode
// once it is actually back. The readmission decision is captured in the
// single DrainEnd record (the dead set is soft state replay cannot
// consult). Caller holds drainMu and the mutation gate.
func (m *MDS) endDrainLocked(id wire.NodeID) bool {
	m.liveMu.Lock()
	dead := m.dead[id]
	m.liveMu.Unlock()
	m.topoMu.Lock()
	if err := m.logAppend(mdslog.Record{Kind: mdslog.KindDrainEnd, Node: id, Readmitted: !dead}); err != nil {
		m.topoMu.Unlock()
		return false
	}
	delete(m.draining, id)
	if !dead {
		m.poolInsertLocked(id)
	}
	m.topoMu.Unlock()
	if !dead {
		m.nodeIndexFor(id)
	}
	return true
}

// Draining reports whether the node has a drain in progress (running
// or interrupted awaiting resume).
func (m *MDS) Draining(id wire.NodeID) bool {
	m.drainMu.Lock()
	defer m.drainMu.Unlock()
	return m.draining[id] != drainNone
}

// Nodes returns the current placement pool.
func (m *MDS) Nodes() []wire.NodeID {
	m.topoMu.RLock()
	defer m.topoMu.RUnlock()
	return append([]wire.NodeID(nil), m.osds...)
}

// Heartbeat records a liveness report.
func (m *MDS) Heartbeat(id wire.NodeID, at time.Time) {
	m.liveMu.Lock()
	m.beats[id] = at
	delete(m.dead, id)
	m.liveMu.Unlock()
}

// HeartbeatAddr records a liveness report carrying the node's advertised
// listen address.
func (m *MDS) HeartbeatAddr(id wire.NodeID, at time.Time, addr string) {
	m.mutateLock()
	defer m.mutateUnlock()
	m.liveMu.Lock()
	defer m.liveMu.Unlock()
	m.beats[id] = at
	delete(m.dead, id)
	if addr == "" {
		return
	}
	// The address itself is durable (clients resolve through it after a
	// restart); logged on change only, never per heartbeat.
	if m.addrs[id] != addr {
		if err := m.logAppend(mdslog.Record{Kind: mdslog.KindAddr, Node: id, Name: addr}); err != nil {
			return
		}
	}
	m.addrs[id] = addr
}

// LastHeartbeat returns the most recent heartbeat time for a node.
func (m *MDS) LastHeartbeat(id wire.NodeID) (time.Time, bool) {
	m.liveMu.Lock()
	defer m.liveMu.Unlock()
	t, ok := m.beats[id]
	return t, ok
}

// MarkDead flags an OSD as failed (heartbeat timeout or explicit kill).
func (m *MDS) MarkDead(id wire.NodeID) {
	m.liveMu.Lock()
	m.dead[id] = true
	m.liveMu.Unlock()
}

// DeadNodes returns the currently failed OSDs.
func (m *MDS) DeadNodes() []wire.NodeID {
	m.liveMu.Lock()
	defer m.liveMu.Unlock()
	out := make([]wire.NodeID, 0, len(m.dead))
	for id := range m.dead {
		out = append(out, id)
	}
	return out
}

// StripesOn returns every (ino, stripe, placement) whose stripe places a
// block on the given node — the recovery work list. It reads the node's
// reverse-index bucket, so the cost is proportional to the blocks the
// node hosts, never to the namespace size.
func (m *MDS) StripesOn(id wire.NodeID) []StripeRef {
	m.revMu.RLock()
	ni := m.rev[id]
	m.revMu.RUnlock()
	if ni == nil {
		return nil
	}
	ni.mu.Lock()
	keys := make([]stripeKey, 0, len(ni.refs))
	for k := range ni.refs {
		keys = append(keys, k)
	}
	ni.mu.Unlock()

	out := make([]StripeRef, 0, len(keys))
	for _, k := range keys {
		is := m.inoShard(k.ino)
		is.mu.RLock()
		fm := is.meta[k.ino]
		var (
			loc wire.StripeLoc
			ok  bool
		)
		if fm != nil {
			loc, ok = fm.stripes[k.stripe]
		}
		is.mu.RUnlock()
		if !ok {
			continue
		}
		// Re-derive the index from the authoritative placement: a
		// concurrent rebind may have moved the block off this node
		// between the bucket snapshot and here.
		for idx, n := range loc.Nodes {
			if n == id {
				out = append(out, StripeRef{Ino: k.ino, Stripe: k.stripe, Idx: uint8(idx), Loc: loc})
				break
			}
		}
	}
	return out
}

// StripesOnSorted is StripesOn in deterministic (Ino, Stripe, Idx)
// order — the repair queue's FIFO seed order. Anything that must agree
// with the engines' rebuild order (benchmarks, tests) should use this
// rather than re-sorting.
func (m *MDS) StripesOnSorted(id wire.NodeID) []StripeRef {
	refs := m.StripesOn(id)
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Ino != refs[j].Ino {
			return refs[i].Ino < refs[j].Ino
		}
		if refs[i].Stripe != refs[j].Stripe {
			return refs[i].Stripe < refs[j].Stripe
		}
		return refs[i].Idx < refs[j].Idx
	})
	return refs
}

// StripeRef names one block of one placed stripe.
type StripeRef struct {
	Ino    uint64
	Stripe uint32
	Idx    uint8
	Loc    wire.StripeLoc
}

// Files returns every (name, ino) pair in the namespace.
func (m *MDS) Files() map[string]uint64 {
	out := make(map[string]uint64)
	for _, ns := range m.nameShards {
		ns.mu.Lock()
		for name, ino := range ns.files {
			out[name] = ino
		}
		ns.mu.Unlock()
	}
	return out
}

// Stripes returns the number of placed stripes of a file.
func (m *MDS) Stripes(ino uint64) int {
	is := m.inoShard(ino)
	is.mu.RLock()
	defer is.mu.RUnlock()
	if fm := is.meta[ino]; fm != nil {
		return len(fm.stripes)
	}
	return 0
}

// Handler serves the MDS RPC surface. Metadata operations are pure
// in-memory work; ctx is accepted for transport symmetry.
func (m *MDS) Handler(ctx context.Context, msg *wire.Msg) *wire.Resp {
	switch msg.Kind {
	case wire.KMDSCreate:
		ino, err := m.Create(msg.Name)
		if err != nil {
			return wire.ErrorResp(err)
		}
		return &wire.Resp{Ino: ino}
	case wire.KMDSLookup:
		if msg.Flag&wire.LookupNoBind != 0 {
			loc, ok := m.PlacementOf(msg.Block.Ino, msg.Block.Stripe)
			if !ok {
				return wire.ErrorResp(fmt.Errorf("ecfs: ino %d stripe %d not placed: %w", msg.Block.Ino, msg.Block.Stripe, wire.ErrNotFound))
			}
			return &wire.Resp{Loc: loc}
		}
		loc, err := m.Lookup(msg.Block.Ino, msg.Block.Stripe)
		if err != nil {
			return wire.ErrorResp(err)
		}
		return &wire.Resp{Loc: loc}
	case wire.KMDSHeartbeat:
		m.HeartbeatAddr(msg.From, time.Now(), msg.Name)
		return &wire.Resp{}
	case wire.KResolveAddr:
		// Self-discovery for dialing clients: the full node address map
		// plus the stripe geometry and block size, so tsue.Dial needs
		// nothing but the MDS address. An unencodable address (beyond
		// the wire format's bound) fails the whole reply loudly rather
		// than silently dropping the node from the map.
		data, err := wire.EncodeAddrMap(m.AddrMap())
		if err != nil {
			return wire.ErrorResp(err)
		}
		return &wire.Resp{
			Data: data,
			Val:  int64(m.k)<<32 | int64(m.m),
			Ino:  uint64(m.blockSize),
		}
	case wire.KMDSStat:
		return &wire.Resp{Val: int64(m.Stripes(msg.Block.Ino))}
	case wire.KRepairHint:
		// A degraded read just paid the K-fetch decode price for this
		// stripe: promote it in the active repair queue, if any. Val
		// reports whether the hint landed so callers can account it.
		if m.promoteRepair(msg.Block.Ino, msg.Block.Stripe) {
			return &wire.Resp{Val: 1}
		}
		return &wire.Resp{}
	case wire.KRepairStatus:
		return &wire.Resp{Val: int64(m.RepairPending())}
	default:
		return &wire.Resp{Err: fmt.Sprintf("mds: unexpected message %v", msg.Kind)}
	}
}
