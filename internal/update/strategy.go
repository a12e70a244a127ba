// Package update implements the erasure-code update strategies the paper
// evaluates — FO, FL, PL, PLR, PARIX, CoRD, and TSUE itself — behind one
// Strategy interface, inside the same file system, exactly as the paper's
// methodology demands for a fair comparison (§5).
//
// Each OSD owns one Strategy instance. The strategy receives client
// updates for data blocks the OSD hosts, exchanges strategy-internal
// messages with peer OSDs (delta forwards, log replicas, parity-log
// appends), and answers reads with read-your-writes semantics over any
// logs it keeps. Every byte it moves is priced through the device and
// network models, so workload tables fall out of real execution.
//
// Placement handling: strategies cache the stripe placement carried on
// update messages (stripeTable) so asynchronous recycle paths can route
// deltas long after the triggering request returned. The cached entry
// is refreshed whenever a message carries a newer placement epoch
// (wire.StripeLoc.Epoch) — after recovery rebinds a stripe onto a
// replacement node, deltas must reach the new member, not the cached
// victim. Epoch *validation* is not a strategy concern: the OSD rejects
// stale client requests before Strategy.Update runs, and
// strategy-internal forwards inherit the already-validated placement of
// the triggering request.
package update

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/blockstore"
	"repro/internal/device"
	"repro/internal/erasure"
	"repro/internal/logpool"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Env is the OSD-side environment a strategy runs in.
type Env interface {
	// ID is this OSD's node id.
	ID() wire.NodeID
	// Store is the OSD's block container (device-priced).
	Store() *blockstore.Store
	// Dev is the OSD's storage device model (for log persistence).
	Dev() *device.Device
	// Call performs a synchronous RPC to a peer node. Synchronous
	// front-end paths pass the triggering request's context so
	// cancellation propagates hop by hop; asynchronous recycle paths
	// pass context.Background() — background work completes regardless
	// of any client's lifetime.
	Call(ctx context.Context, to wire.NodeID, msg *wire.Msg) (*wire.Resp, error)
	// CallBatch delivers a set of peer calls together, with Call's
	// per-call semantics: on a batch-capable transport same-destination
	// frames leave in one flush.
	CallBatch(ctx context.Context, calls []*transport.BatchCall)
	// Code returns the (cached) RS code for the given geometry.
	Code(k, m int) (*erasure.Code, error)
}

// DrainPhases is the number of ordered cluster-wide drain rounds needed
// to flush any strategy completely (TSUE: DataLog, DeltaLog, ParityLog).
const DrainPhases = 3

// Strategy is one update method instance, bound to one OSD.
type Strategy interface {
	// Name returns the method name ("tsue", "pl", ...).
	Name() string
	// Update processes a client update to a data block hosted here and
	// returns the synchronous-path latency (what the client perceives).
	// ctx is the triggering request's context; strategy-internal
	// forwards on the synchronous path inherit it.
	Update(ctx context.Context, msg *wire.Msg) (time.Duration, error)
	// Handle processes a strategy-internal message from a peer OSD.
	Handle(ctx context.Context, msg *wire.Msg) *wire.Resp
	// Read returns block bytes honoring any pending logs, with the
	// modeled read latency (zero on a log-cache hit). Reads are local
	// (store + resident logs) and take no context.
	Read(b wire.BlockID, off uint32, size int) ([]byte, time.Duration, error)
	// Drain flushes asynchronous state. It is called cluster-wide for
	// phases 1..DrainPhases in order; dead lists failed nodes so
	// replica/copy logs can be promoted.
	Drain(ctx context.Context, phase int, dead []wire.NodeID) error
	// Close stops background workers.
	Close()
}

// PlacementRefresher is implemented by strategies that cache stripe
// placements for asynchronous delta routing. The OSD forwards placement
// epoch broadcasts (wire.KEpochUpdate) through it, so recycle paths
// route deltas to the member a repair or drain just installed instead
// of the cached predecessor.
type PlacementRefresher interface {
	RefreshPlacement(msg *wire.Msg)
}

// Replayer is implemented by strategies that can re-ingest durably
// persisted log records after a restart. The OSD calls ReplayPersisted
// once per surviving (unfolded) record, in original append order, after
// placements have been seeded; the strategy routes the record back into
// the layer named by the persistence key it was logged under.
type Replayer interface {
	ReplayPersisted(layer string, block wire.BlockID, off uint32, v int64, data []byte)
}

// Config carries the tunables shared by the strategies.
type Config struct {
	// BlockSize is the stripe block size in bytes.
	BlockSize int

	// Log pool geometry (TSUE; also reused by FL/PL/CoRD logs).
	UnitSize int64 // log unit capacity (paper: 16 MiB)
	MaxUnits int   // units per pool (paper default 4; Fig. 6b sweeps it)
	Pools    int   // log pools per device (paper: 4; Fig. 7 O4)
	Workers  int   // recycle threads per pool

	// TSUE feature gates for the Fig. 7 breakdown.
	DataLogLocality   bool // O1: spatio-temporal merging in the data log
	ParityLogLocality bool // O2: merging in the parity log
	UseLogPool        bool // O3: FIFO multi-unit pool vs one small unit
	UseDeltaLog       bool // O5: the intermediate DeltaLog layer
	// DataLogReplicas is the number of extra DataLog copies (1 on the
	// SSD cluster = 2 copies total; 2 on HDD = 3 copies, Fig. 2 note).
	DataLogReplicas int
	// CompressDeltas enables the paper's §7 future-work extension:
	// deflate data deltas and merged parity deltas before forwarding
	// them between log layers, trading buffered-residence CPU time for
	// network traffic.
	CompressDeltas bool

	// Baseline knobs.
	RecycleThreshold  int64 // PL/FL/PARIX deferred-recycle threshold
	ReservedSpace     int64 // PLR per-block reserved log space
	CollectorUnitSize int64 // CoRD single buffer log size

	// Persist, when non-nil, durably backs TSUE's log layers: every
	// accepted log record is written to a per-layer on-disk segment
	// before the append returns, and recycled records are folded dead.
	// Nil (the default) keeps logs memory-only.
	Persist logpool.PersistProvider
}

// DefaultConfig returns the paper's SSD-cluster configuration.
func DefaultConfig() Config {
	return Config{
		BlockSize:         1 << 20,
		UnitSize:          16 << 20,
		MaxUnits:          4,
		Pools:             4,
		Workers:           4,
		DataLogLocality:   true,
		ParityLogLocality: true,
		UseLogPool:        true,
		UseDeltaLog:       true,
		DataLogReplicas:   1,
		RecycleThreshold:  64 << 20,
		ReservedSpace:     64 << 10,
		CollectorUnitSize: 4 << 20,
	}
}

// Known method names, in the paper's comparison order.
var Methods = []string{"fo", "pl", "plr", "parix", "cord", "tsue"}

// AllMethods includes FL (§2.2), which the paper describes but does not
// chart.
var AllMethods = []string{"fo", "fl", "pl", "plr", "parix", "cord", "tsue"}

// New constructs the named strategy bound to env.
func New(name string, cfg Config, env Env) (Strategy, error) {
	if cfg.BlockSize <= 0 {
		return nil, fmt.Errorf("update: non-positive block size")
	}
	switch name {
	case "fo":
		return newFO(cfg, env), nil
	case "fl":
		return newFL(cfg, env)
	case "pl":
		return newPL(cfg, env)
	case "plr":
		return newPLR(cfg, env), nil
	case "parix":
		return newPARIX(cfg, env), nil
	case "cord":
		return newCoRD(cfg, env)
	case "tsue":
		return newTSUE(cfg, env)
	default:
		return nil, fmt.Errorf("update: unknown method %q", name)
	}
}

// ---- shared helpers ----

// stripeKey identifies a stripe across blocks.
type stripeKey struct {
	Ino    uint64
	Stripe uint32
}

func keyOf(b wire.BlockID) stripeKey { return stripeKey{Ino: b.Ino, Stripe: b.Stripe} }

// stripeInfo caches the placement/geometry carried on update messages so
// asynchronous recycle paths can route deltas.
type stripeInfo struct {
	K, M int
	Loc  wire.StripeLoc
}

type stripeTable struct {
	mu sync.RWMutex
	m  map[stripeKey]stripeInfo
}

func newStripeTable() *stripeTable { return &stripeTable{m: make(map[stripeKey]stripeInfo)} }

func (t *stripeTable) remember(msg *wire.Msg) {
	if len(msg.Loc.Nodes) == 0 {
		return
	}
	k := keyOf(msg.Block)
	t.mu.Lock()
	// Refresh on a newer placement epoch: after a repair or drain
	// rebinds a stripe onto another node, asynchronous recycle paths
	// must route deltas to the *new* member, not the cached one.
	if cur, ok := t.m[k]; !ok || msg.Loc.Epoch > cur.Loc.Epoch {
		kk, mm := int(msg.K), int(msg.M)
		if kk == 0 && ok {
			// Geometry-free refresh (an epoch broadcast): keep the
			// known K/M, adopt only the new placement.
			kk, mm = cur.K, cur.M
		}
		loc := wire.StripeLoc{Nodes: append([]wire.NodeID(nil), msg.Loc.Nodes...), Epoch: msg.Loc.Epoch}
		t.m[k] = stripeInfo{K: kk, M: mm, Loc: loc}
	}
	t.mu.Unlock()
}
func (t *stripeTable) get(b wire.BlockID) (stripeInfo, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	si, ok := t.m[keyOf(b)]
	return si, ok
}

// stripeWork is one stripe's share of a recycled log unit: the data
// deltas of its source blocks, by data-block index, ready for Eq. 5.
type stripeWork struct {
	si     stripeInfo
	anyB   wire.BlockID
	blocks map[int][]logpool.Extent
}

// groupByStripe groups a recycled unit's blocks by stripe and counts the
// unit's extents and bytes. A block whose stripe has no known placement
// is counted but not grouped: there is nowhere to send its deltas.
func groupByStripe(st *stripeTable, bes []logpool.BlockExtents) (work map[stripeKey]*stripeWork, extents, bytes int64) {
	work = make(map[stripeKey]*stripeWork)
	for _, be := range bes {
		extents += int64(len(be.Extents))
		for _, e := range be.Extents {
			bytes += int64(len(e.Data))
		}
		si, ok := st.get(be.Block)
		if !ok {
			continue
		}
		k := keyOf(be.Block)
		sw := work[k]
		if sw == nil {
			sw = &stripeWork{si: si, anyB: be.Block, blocks: make(map[int][]logpool.Extent)}
			work[k] = sw
		}
		sw.blocks[int(be.Block.Idx)] = be.Extents
	}
	return work, extents, bytes
}

// parityNode returns the node hosting parity block j (0-based) of the
// stripe described by si.
func (si stripeInfo) parityNode(j int) wire.NodeID { return si.Loc.Nodes[si.K+j] }

// parityBlock returns the BlockID of parity j for a block in the stripe.
func parityBlock(b wire.BlockID, k, j int) wire.BlockID { return b.WithIdx(uint8(k + j)) }

// fanout issues one call per target concurrently — one batch through
// the environment's transport — and returns the largest response cost
// (the latency of parallel synchronous hops), or the first error
// encountered.
func fanout(ctx context.Context, env Env, targets []wire.NodeID, mk func(to wire.NodeID) *wire.Msg) (time.Duration, error) {
	calls := make([]*transport.BatchCall, len(targets))
	for i, to := range targets {
		calls[i] = &transport.BatchCall{To: to, Msg: mk(to)}
	}
	_, most, err := deliver(ctx, env, calls)
	if err != nil {
		return 0, err
	}
	return most, nil
}

// updateInPlace is the synchronous update path FO, PL and PLR share:
// overwrite the data range in place, then send the data delta to every
// parity OSD of the stripe as a kind message — an in-place parity fold
// (FO) or a parity-log append (PL, PLR). A log append carries the delta
// as an extent list of one, and the stripe placement its recycle
// needs; a fold carries the bare delta and no placement.
func updateInPlace(ctx context.Context, env Env, cfg Config, msg *wire.Msg, kind wire.Kind) (time.Duration, error) {
	delta, cost, err := overwriteMsg(env, cfg, msg)
	if err != nil {
		return 0, err
	}
	var loc wire.StripeLoc
	if kind != wire.KParityDelta {
		loc = msg.Loc
		delta = EncodeExtents([]ExtentRec{{Off: msg.Off, V: msg.V, Data: delta}})
	}
	k, m := int(msg.K), int(msg.M)
	fanCost, err := fanout(ctx, env, msg.Loc.Nodes[k:k+m], func(to wire.NodeID) *wire.Msg {
		j := indexOfNode(msg.Loc.Nodes[k:], to)
		return &wire.Msg{
			Kind:  kind,
			Block: parityBlock(msg.Block, k, j),
			Off:   msg.Off,
			Data:  delta,
			Idx:   msg.Block.Idx,
			K:     msg.K,
			M:     msg.M,
			Loc:   loc,
			V:     msg.V,
		}
	})
	if err != nil {
		return 0, err
	}
	return cost + fanCost, nil
}

// readThrough returns base's read of block b from offset off with the
// pending content of b's data log pool laid over it. A unit that
// finishes recycling between the base read and the overlay is in
// neither: its store write landed after the read, and the overlay skips
// recycled units. So the read repeats, each base read priced, until no
// unit of the pool finished recycling in between.
func readThrough(pool *logpool.Pool, b wire.BlockID, off uint32, base func() ([]byte, time.Duration, error)) ([]byte, time.Duration, error) {
	var total time.Duration
	for {
		recycled := pool.Stats().UnitsRecycled
		data, cost, err := base()
		if err != nil {
			return nil, 0, err
		}
		total += cost
		pool.Overlay(b, off, data)
		if pool.Stats().UnitsRecycled == recycled {
			return data, total, nil
		}
	}
}

// overwriteMsg overwrites a client update's range in place on the
// foreground path and returns its data delta and modeled cost.
func overwriteMsg(env Env, cfg Config, msg *wire.Msg) ([]byte, time.Duration, error) {
	deltas, cost, err := env.Store().Overwrite(sim.ClassForegroundWrite, msg.Block, cfg.BlockSize,
		[]blockstore.Extent{{Off: msg.Off, Data: msg.Data}})
	if err != nil {
		return nil, 0, err
	}
	return deltas[0].Data, cost, nil
}

// storeExtents views recycled log extents as block-store extents.
func storeExtents(exts []logpool.Extent) []blockstore.Extent {
	out := make([]blockstore.Extent, len(exts))
	for i, e := range exts {
		out[i] = blockstore.Extent{Off: e.Off, Data: e.Data}
	}
	return out
}

// errResp wraps an error into a response, keeping any structured
// sentinel class (stale epoch, not found, peer unreachable) it carries.
func errResp(err error) *wire.Resp { return wire.ErrorResp(err) }

// okResp builds a success response with a cost.
func okResp(cost time.Duration) *wire.Resp { return &wire.Resp{Cost: cost} }

// intervalSet tracks covered byte ranges of a block (PARIX speculative
// state). Not safe for concurrent use; callers hold their own lock.
type intervalSet struct {
	ivs []ival // sorted, disjoint, non-adjacent
}

type ival struct{ lo, hi uint32 } // [lo, hi)

// addGaps merges [lo, hi) into the set and returns the previously
// uncovered sub-ranges.
func (s *intervalSet) addGaps(lo, hi uint32) []ival {
	if hi <= lo {
		return nil
	}
	var gaps []ival
	cur := lo
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].hi >= lo })
	j := i
	newLo, newHi := lo, hi
	for ; j < len(s.ivs) && s.ivs[j].lo <= hi; j++ {
		iv := s.ivs[j]
		if cur < iv.lo {
			gaps = append(gaps, ival{cur, minU32i(iv.lo, hi)})
		}
		if iv.hi > cur {
			cur = iv.hi
		}
		if iv.lo < newLo {
			newLo = iv.lo
		}
		if iv.hi > newHi {
			newHi = iv.hi
		}
	}
	if cur < hi {
		gaps = append(gaps, ival{cur, hi})
	}
	merged := append(s.ivs[:i:i], ival{newLo, newHi})
	s.ivs = append(merged, s.ivs[j:]...)
	return gaps
}

// gaps returns the sub-ranges of [lo, hi) the set does not cover,
// leaving the set unchanged.
func (s *intervalSet) gaps(lo, hi uint32) []ival {
	probe := intervalSet{ivs: append([]ival(nil), s.ivs...)}
	return probe.addGaps(lo, hi)
}

func minU32i(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}
