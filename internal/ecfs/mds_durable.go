package ecfs

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/mdslog"
	"repro/internal/wire"
)

// This file is the MDS's durability layer: the glue between the mutating
// entry points in mds.go and the internal/mdslog op log.
//
// The contract is log-before-ack. Every durable mutator takes the
// mutation gate in shared mode, decides under the locks that own the
// mutated key, appends the key's new state as one record, and then
// installs that record through the per-kind apply function below —
// applyCreateLocked, applyBindLocked or applyNodeLocked — before
// acknowledging. Log order and apply order agree per key, and a crash
// can lose only mutations no caller was ever told about. Replay calls
// the same apply functions, where the last record per key wins, so a
// stale log prefix (crash between snapshot rename and log truncate)
// converges to the same state. A mutation that changes no durable state
// appends nothing.
//
// Soft state — heartbeat times, the dead set, address freshness stamps,
// running versus interrupted drains, the repair scheduler — is never
// logged and is re-learned after a restart; see the snapshot State doc
// in internal/mdslog.

// OpenDurableMDS opens (or creates) a durable MDS backed by the given
// data directory: load the snapshot if one exists, replay the committed
// op-log tail, and checkpoint the result so the log starts empty. The
// osds/k/m/shards arguments seed a fresh directory; a directory with a
// snapshot must agree on the geometry (the namespace shard choice and
// stripe placement both derive from it) and supplies its own placement
// pool.
func OpenDurableMDS(dir string, osds []wire.NodeID, k, m, shards int, opts mdslog.Options) (*MDS, error) {
	l, st, recs, err := mdslog.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	pool := osds
	if st != nil {
		pool = st.Pool
	}
	md, err := NewMDSWithShards(pool, k, m, shards)
	if err == nil && st != nil && (st.K != k || st.M != m || st.Shards != md.Shards()) {
		err = fmt.Errorf("ecfs: mds data dir %s holds RS(%d,%d)/%d shards, asked for RS(%d,%d)/%d", dir, st.K, st.M, st.Shards, k, m, md.Shards())
	}
	if err != nil {
		l.Close()
		return nil, err
	}
	if st != nil {
		md.loadState(st)
	}
	for _, r := range recs {
		md.applyRecord(r)
	}
	// Soft state starts afresh. A drain that was running when the
	// process died lost its engine: demote it to interrupted-awaiting-
	// resume, the state InterruptDrain leaves. Every address's TTL clock
	// starts at the reopen, a grace window until its owner heartbeats.
	now := time.Now()
	for id := range md.draining {
		md.draining[id] = drainInterrupted
	}
	for id := range md.addrs {
		md.addrAt[id] = now
	}
	md.log = l
	// Fold the replayed tail into a fresh snapshot so the next open
	// replays nothing (and a stale prefix from a torn checkpoint is
	// retired).
	if err := md.Checkpoint(); err != nil {
		l.Close()
		return nil, err
	}
	return md, nil
}

// Durable reports whether the MDS is backed by an op log.
func (m *MDS) Durable() bool { return m.log != nil }

// mutateLock/mutateUnlock bracket every durable mutation in the gate's
// shared mode; Checkpoint's exclusive mode stops the world so the
// snapshot matches the log exactly. In-memory MDSes skip the gate
// entirely — the hot path is unchanged.
func (m *MDS) mutateLock() {
	if m.log != nil {
		m.gate.RLock()
	}
}

func (m *MDS) mutateUnlock() {
	if m.log == nil {
		return
	}
	m.gate.RUnlock()
	if m.log.NeedsCompact() {
		m.gate.Lock()
		if m.log.NeedsCompact() {
			m.log.Compact(m.snapshotState()) // failure freezes the log; mutators surface it
		}
		m.gate.Unlock()
	}
}

// logAppend appends one record, returning nil on an in-memory MDS. The
// caller holds the lock owning the mutated state, so log order and
// apply order agree. On error the caller must not apply: the op log
// froze (fail-stop) and memory must not run ahead of disk.
func (m *MDS) logAppend(r mdslog.Record) error {
	if m.log == nil {
		return nil
	}
	return m.log.Append(r)
}

// Checkpoint serializes the namespace and compacts the op log (snapshot
// write + log truncate), holding the mutation gate exclusively. A no-op
// for in-memory MDSes.
func (m *MDS) Checkpoint() error {
	if m.log == nil {
		return nil
	}
	m.gate.Lock()
	defer m.gate.Unlock()
	return m.log.Compact(m.snapshotState())
}

// Crash freezes the op log, simulating kill -9: every later mutation
// fails, Close skips the shutdown checkpoint, and the data directory
// keeps exactly what write(2) saw.
func (m *MDS) Crash() {
	if m.log != nil {
		m.log.Crash()
	}
}

// Close shuts the durable MDS down cleanly: checkpoint (unless crashed)
// and release the log. In-memory MDSes no-op.
func (m *MDS) Close() error {
	if m.log == nil {
		return nil
	}
	var err error
	if !m.log.Crashed() {
		err = m.Checkpoint()
	}
	if cerr := m.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// Log exposes the underlying op log (nil for in-memory MDSes) — test
// and bench access to stats and crash hooks.
func (m *MDS) Log() *mdslog.Log { return m.log }

// AdoptScheduler installs an existing repair scheduler — how an MDS
// restart keeps the cluster-lifetime rebuild ledger and the queues the
// running engines registered: the scheduler is soft state owned by the
// process, not the namespace, so a reopened MDS inherits the live one
// rather than persisting it.
func (m *MDS) AdoptScheduler(s *RepairScheduler) {
	if s == nil {
		return
	}
	m.schedMu.Lock()
	m.sched = s
	m.schedMu.Unlock()
}

// PlacementOf returns a stripe's current placement without binding it
// on a miss — the read-only peek equivalence checks use so comparing
// two MDSes cannot mutate either.
func (m *MDS) PlacementOf(ino uint64, stripe uint32) (wire.StripeLoc, bool) {
	is := m.inoShard(ino)
	is.mu.RLock()
	defer is.mu.RUnlock()
	fm := is.meta[ino]
	if fm == nil {
		return wire.StripeLoc{}, false
	}
	loc, ok := fm.stripes[stripe]
	return loc, ok
}

// snapshotState serializes the durable state, deterministically ordered
// (files by ino, stripes by index, nodes by id). Called under the
// exclusive gate, so no mutation is mid-flight; the per-field locks are
// still taken for the race detector's benefit.
func (m *MDS) snapshotState() *mdslog.State {
	st := &mdslog.State{K: m.k, M: m.m, Shards: len(m.inoShards)}
	files := m.Files()
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return files[names[i]] < files[names[j]] })
	for _, name := range names {
		ino := files[name]
		fs := mdslog.FileState{Name: name, Ino: ino}
		is := m.inoShard(ino)
		is.mu.RLock()
		if fm := is.meta[ino]; fm != nil {
			for stripe, loc := range fm.stripes {
				fs.Stripes = append(fs.Stripes, mdslog.StripeState{
					Stripe: stripe, Epoch: loc.Epoch,
					Nodes: append([]wire.NodeID(nil), loc.Nodes...),
				})
			}
		}
		is.mu.RUnlock()
		sort.Slice(fs.Stripes, func(i, j int) bool { return fs.Stripes[i].Stripe < fs.Stripes[j].Stripe })
		st.Files = append(st.Files, fs)
	}

	m.lockNodes()
	defer m.unlockNodes()
	st.Pool = slices.Clone(m.osds)
	ids := make([]wire.NodeID, 0, len(m.addrs)+len(m.draining))
	for id := range m.addrs {
		ids = append(ids, id)
	}
	for id := range m.draining {
		if _, ok := m.addrs[id]; !ok {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		st.Nodes = append(st.Nodes, m.nodeRecordLocked(id))
	}
	return st
}

// loadState installs a decoded snapshot into a freshly built MDS (whose
// pool already came from the snapshot) through the apply path records
// take.
func (m *MDS) loadState(st *mdslog.State) {
	for _, f := range st.Files {
		m.applyRecord(mdslog.Record{Kind: mdslog.KindCreate, Ino: f.Ino, Name: f.Name})
		for _, s := range f.Stripes {
			m.applyRecord(mdslog.Record{Kind: mdslog.KindBind, Ino: f.Ino, Stripe: s.Stripe, Epoch: s.Epoch, Nodes: s.Nodes})
		}
	}
	for _, r := range st.Nodes {
		m.applyRecord(r)
	}
}

// applyRecord installs one op-log record, taking the locks the live
// mutator held and calling the apply function it called.
func (m *MDS) applyRecord(r mdslog.Record) {
	switch r.Kind {
	case mdslog.KindCreate:
		ns := m.nameShard(r.Name)
		ns.mu.Lock()
		m.applyCreateLocked(ns, r)
		ns.mu.Unlock()
	case mdslog.KindBind:
		is := m.inoShard(r.Ino)
		is.mu.Lock()
		if fm := is.meta[r.Ino]; fm != nil {
			m.applyBindLocked(fm, r)
		}
		is.mu.Unlock()
	case mdslog.KindNode:
		m.lockNodes()
		m.applyNodeLocked(r)
		m.unlockNodes()
	}
}

// applyCreateLocked installs a name → ino binding unless the name is
// already bound, and moves the shard's allocation counter past the ino
// so a later create cannot reuse it. Caller holds the name shard's
// lock.
func (m *MDS) applyCreateLocked(ns *nameShard, r mdslog.Record) {
	if _, ok := ns.files[r.Name]; ok {
		return
	}
	if n := (r.Ino - 1 - ns.idx) / ns.step; n >= ns.next {
		ns.next = n + 1
	}
	is := m.inoShard(r.Ino)
	is.mu.Lock()
	is.meta[r.Ino] = &fileMeta{name: r.Name, stripes: make(map[uint32]wire.StripeLoc)}
	is.mu.Unlock()
	ns.files[r.Name] = r.Ino
}

// applyBindLocked installs a stripe's placement when the stripe is
// unplaced or the record's epoch is newer — so a first-touch bind
// replayed over a later rebind changes nothing — and moves the reverse
// index from the old node list to the new one. Caller holds the inode
// shard's lock.
func (m *MDS) applyBindLocked(fm *fileMeta, r mdslog.Record) {
	old, placed := fm.stripes[r.Stripe]
	if placed && old.Epoch >= r.Epoch {
		return
	}
	fm.stripes[r.Stripe] = wire.StripeLoc{Nodes: r.Nodes, Epoch: r.Epoch}
	for _, n := range old.Nodes {
		if !slices.Contains(r.Nodes, n) {
			m.unindexBlock(n, r.Ino, r.Stripe)
		}
	}
	for idx, n := range r.Nodes {
		if idx >= len(old.Nodes) || old.Nodes[idx] != n {
			m.indexBlock(n, r.Ino, r.Stripe, uint8(idx))
		}
	}
}

// updateNode is the one path of every node mutator. Under the mutation
// gate and lockNodes it reads the node's durable state as a KindNode
// record and lets edit decide the new state (an error from edit aborts
// with nothing logged). A changed state is appended and installed
// through applyNodeLocked; an unchanged one appends nothing. Mutators
// that return nothing drop the error: a failed append froze the log, so
// every later mutation fails too.
func (m *MDS) updateNode(id wire.NodeID, edit func(r *mdslog.Record) error) error {
	m.mutateLock()
	defer m.mutateUnlock()
	m.lockNodes()
	defer m.unlockNodes()
	cur := m.nodeRecordLocked(id)
	r := cur
	if err := edit(&r); err != nil {
		return err
	}
	if r.InPool == cur.InPool && r.Draining == cur.Draining && r.Name == cur.Name {
		return nil
	}
	if err := m.logAppend(r); err != nil {
		return err
	}
	m.applyNodeLocked(r)
	return nil
}

// lockNodes takes the locks that own node state, in the order drainMu →
// liveMu → topoMu.
func (m *MDS) lockNodes() {
	m.drainMu.Lock()
	m.liveMu.Lock()
	m.topoMu.Lock()
}

func (m *MDS) unlockNodes() {
	m.topoMu.Unlock()
	m.liveMu.Unlock()
	m.drainMu.Unlock()
}

// nodeRecordLocked returns a node's durable state as its KindNode
// record. Caller holds lockNodes.
func (m *MDS) nodeRecordLocked(id wire.NodeID) mdslog.Record {
	return mdslog.Record{
		Kind: mdslog.KindNode, Node: id,
		InPool:   slices.Contains(m.osds, id),
		Draining: m.draining[id] != drainNone,
		Name:     m.addrs[id],
	}
}

// applyNodeLocked installs a node's durable state: pool membership (a
// newcomer takes its place in id order, so the order place indexes is
// a function of the membership alone, whatever prefix of the op log a
// reopen replays; the pool is copied on write because place reads it
// under RLock only), the drain mark (a new mark is a
// running drain; an existing one keeps its running or interrupted
// state), and the address. Caller holds lockNodes.
func (m *MDS) applyNodeLocked(r mdslog.Record) {
	switch i, in := slices.BinarySearch(m.osds, r.Node); {
	case r.InPool && !in:
		m.osds = slices.Insert(slices.Clone(m.osds), i, r.Node)
	case !r.InPool && in:
		m.osds = slices.Delete(slices.Clone(m.osds), i, i+1)
	}
	if !r.Draining {
		delete(m.draining, r.Node)
	} else if m.draining[r.Node] == drainNone {
		m.draining[r.Node] = drainActive
	}
	if r.Name == "" {
		delete(m.addrs, r.Node)
		delete(m.addrAt, r.Node)
	} else {
		m.addrs[r.Node] = r.Name
	}
}
