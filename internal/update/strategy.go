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
// A method writes only what is its own: the update path, the peer
// handler, the recycle functions of its log layers, and the replay of
// any copies peers keep of its pending updates (TSUE's DataLog
// replicas, which a repair replays onto a rebuilt block). It declares
// its layers once, in one table (layers.go), and the table derives the
// rest of Strategy for every method alike: Read — which lends the
// store's bytes unless a layer is declared the read layer (TSUE's
// DataLog, a read cache, §3.3.3; FL's data log, an overlay) — Drain by
// phase, Settle, Close, per-layer stats, the memory budget and the
// crash replay of persisted records; a method that keeps no replicas
// replays none. FO, PLR and PARIX declare no pooled layer; PLR, PARIX
// and TSUE override Drain where they do more than drain pools.
//
// Every parity log holds parity deltas its sender scaled (α_j·Δ, Eq. 2,
// or Eq. 5's sums) and folds them at coefficient 1; only an in-place
// fold (FO, FL, PARIX) names α on the block-store extent.
//
// Placement handling: strategies keep no placement of their own. The
// OSD holds one record per stripe — geometry, nodes and placement epoch
// — learned from every inbound message that carries a placement (client
// requests, epoch fences and broadcasts, strategy forwards) and
// journaled on a durable OSD. Asynchronous recycle paths read it through
// Env.Placement when they route deltas long after the triggering request
// returned; after a repair or drain rebinds a stripe, the record already
// names the new member. Epoch *validation* is not a strategy concern
// either: the OSD rejects stale client requests before Strategy.Update
// runs, and strategy-internal forwards inherit the already-validated
// placement of the triggering request.
package update

import (
	"context"
	"fmt"
	"sort"
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
	// Placement returns the newest placement this OSD has learned for
	// b's stripe, and whether it is known: a stripe whose nodes or
	// geometry no message has carried yet is not.
	Placement(b wire.BlockID) (Placement, bool)
}

// Placement is a stripe's geometry and placement as this OSD knows it.
type Placement struct {
	K, M int
	Loc  wire.StripeLoc
}

// parityNode returns the node hosting parity block j (0-based).
func (p Placement) parityNode(j int) wire.NodeID { return p.Loc.Nodes[p.K+j] }

// DrainPhases is the number of ordered cluster-wide drain rounds needed
// to flush any strategy completely (TSUE: DataLog, DeltaLog, ParityLog).
const DrainPhases = 3

// Strategy is one update method instance, bound to one OSD. A method
// writes its own Name, Update and Handle (and TSUE its ReplayReplicas);
// the rest comes from the layer table it embeds (layers.go).
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
	// Read returns n bytes of block b from off, honoring any pending
	// logs, the release that ends the caller's use of them, and the
	// modeled read latency (zero on a log-cache hit). The bytes are
	// read-only — the store's own block (blockstore.Store.View) when no
	// log holds content for the range, else a transport reply buffer
	// the log content was laid into — and the caller runs the release
	// once, after its last use of them; on error there is nothing to
	// release. Reads are local (store + resident logs) and take no
	// context.
	Read(b wire.BlockID, off uint32, n int) ([]byte, func(), time.Duration, error)
	// Drain flushes asynchronous state. It is called cluster-wide for
	// phases 1..DrainPhases in order; dead lists failed nodes so
	// replica/copy logs can be promoted.
	Drain(ctx context.Context, phase int, dead []wire.NodeID) error
	// Settle waits until every sealed log unit has recycled, without
	// forcing active units out; harnesses call it before reading
	// counters.
	Settle()
	// LayerStats returns each log layer's pool statistics by layer
	// name (empty for a method without log pools).
	LayerStats() map[string]logpool.Stats
	// MemoryBytes returns the log-buffer budget across layers (0
	// without log pools).
	MemoryBytes() int64
	// ReplayPersisted re-ingests one durably persisted log record after
	// a restart. The OSD calls it once per surviving (unfolded) record,
	// in original append order, after seeding its placement table from
	// the engine; the record goes back into the layer named by the
	// persistence key it was logged under, and one of a layer this
	// method does not declare is dropped.
	ReplayPersisted(layer string, block wire.BlockID, off uint32, v int64, data []byte)
	// ReplayReplicas lays what peers hold of a lost block's pending
	// updates (TSUE's DataLog replicas, §4.2; nothing for the others)
	// over data, its content reconstructed from the stripe at p, and
	// forwards the parity deltas of what changed, skipping down nodes.
	// It returns the bytes replayed and the fetches' and forwards' cost.
	ReplayReplicas(ctx context.Context, p Placement, lost wire.BlockID, data []byte, down func(wire.NodeID) bool) (replayed int64, cost time.Duration, err error)
	// Close stops background workers.
	Close()
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

	// Persist, when non-nil, durably backs every declared log layer —
	// FL's, PL's, CoRD's and TSUE's: every accepted log record is
	// written to a per-layer on-disk segment before the append returns,
	// and recycled records are folded dead. PLR and PARIX refuse it.
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
		return newFO(cfg, env)
	case "fl":
		return newFL(cfg, env)
	case "pl":
		return newPL(cfg, env)
	case "plr":
		return newPLR(cfg, env)
	case "parix":
		return newPARIX(cfg, env)
	case "cord":
		return newCoRD(cfg, env)
	case "tsue":
		return newTSUE(cfg, env)
	default:
		return nil, fmt.Errorf("update: unknown method %q", name)
	}
}

// ---- shared helpers ----

// refuseDurable refuses cfg.Persist for a method whose logs are not log
// pools and so cannot be persisted: on a durable OSD a crash would drop
// acknowledged deltas and leave parity inconsistent.
func refuseDurable(method string, cfg Config) error {
	if cfg.Persist != nil {
		return fmt.Errorf("update: %s cannot persist its logs; run it on in-memory OSDs", method)
	}
	return nil
}

// stripeKey identifies a stripe across blocks.
type stripeKey struct {
	Ino    uint64
	Stripe uint32
}

func keyOf(b wire.BlockID) stripeKey { return stripeKey{Ino: b.Ino, Stripe: b.Stripe} }

// stripeWork is one stripe's share of a recycled log unit: the data
// deltas of its source blocks, by data-block index, ready for Eq. 5.
type stripeWork struct {
	place  Placement
	anyB   wire.BlockID
	blocks map[int][]logpool.Extent
}

// groupByStripe groups a recycled unit's blocks by stripe. A block
// whose stripe has no known placement is not grouped: there is nowhere
// to send its deltas.
func groupByStripe(env Env, bes []logpool.BlockExtents) map[stripeKey]*stripeWork {
	work := make(map[stripeKey]*stripeWork)
	for _, be := range bes {
		place, ok := env.Placement(be.Block)
		if !ok {
			continue
		}
		k := keyOf(be.Block)
		sw := work[k]
		if sw == nil {
			sw = &stripeWork{place: place, anyB: be.Block, blocks: make(map[int][]logpool.Extent)}
			work[k] = sw
		}
		sw.blocks[int(be.Block.Idx)] = be.Extents
	}
	return work
}

// parityBlock returns the BlockID of parity j for a block in the stripe.
func parityBlock(b wire.BlockID, k, j int) wire.BlockID { return b.WithIdx(uint8(k + j)) }

// fanout issues one call per target, mk(i) to targets[i], concurrently
// — one batch through the environment's transport — and returns the
// largest response cost (the latency of parallel synchronous hops), or
// the first error encountered.
func fanout(ctx context.Context, env Env, targets []wire.NodeID, mk func(i int) *wire.Msg) (time.Duration, error) {
	calls := make([]*transport.BatchCall, len(targets))
	for i, to := range targets {
		calls[i] = &transport.BatchCall{To: to, Msg: mk(i)}
	}
	_, most, err := deliver(ctx, env, calls)
	if err != nil {
		return 0, err
	}
	return most, nil
}

// updateInPlace is the synchronous update path FO, PL and PLR share:
// overwrite the data range in place, then send a kind message to every
// parity OSD of the stripe. FO's in-place fold (KParityDelta) carries
// the bare data delta and the source index its fold scales by. PL's
// and PLR's parity-log append (KParityLogAdd) carries its parity's
// delta, scaled here, as an extent list of one. The overwrite writes
// the delta straight into the payload it leaves in — for the logs, the
// first of M lists in one pooled buffer, which the rest scale from.
func updateInPlace(ctx context.Context, env Env, cfg Config, msg *wire.Msg, kind wire.Kind) (time.Duration, error) {
	k, m := int(msg.K), int(msg.M)
	if kind == wire.KParityLogAdd {
		code, err := env.Code(k, m)
		if err != nil {
			return 0, err
		}
		buf, lists := getLists(m, extentHeaderSize+len(msg.Data))
		defer putDeltaBuf(buf)
		cost, err := overwriteMsg(env, cfg, msg, lists[0][extentHeaderSize:])
		if err != nil {
			return 0, err
		}
		putExtentHeader(lists[0], msg.Off, len(msg.Data), msg.V)
		scaleLists(code, int(msg.Block.Idx), lists[0], lists)
		_, most, err := deliver(ctx, env, parityAppends(Placement{K: k, M: m, Loc: msg.Loc}, msg.Block, lists, false, nil))
		if err != nil {
			return 0, err
		}
		return cost + most, nil
	}
	buf := getDeltaBuf(len(msg.Data))
	defer putDeltaBuf(buf)
	delta := *buf
	cost, err := overwriteMsg(env, cfg, msg, delta)
	if err != nil {
		return 0, err
	}
	fanCost, err := fanout(ctx, env, msg.Loc.Nodes[k:k+m], func(j int) *wire.Msg {
		return &wire.Msg{Kind: kind, Block: parityBlock(msg.Block, k, j), Off: msg.Off, Data: delta,
			Idx: msg.Block.Idx, K: msg.K, M: msg.M, V: msg.V}
	})
	if err != nil {
		return 0, err
	}
	return cost + fanCost, nil
}

// overwriteMsg overwrites a client update's range in place on the
// foreground path, writes its data delta into delta (len(msg.Data)
// bytes) and returns its modeled cost.
func overwriteMsg(env Env, cfg Config, msg *wire.Msg, delta []byte) (time.Duration, error) {
	_, cost, err := env.Store().Overwrite(sim.ClassForegroundWrite, msg.Block, cfg.BlockSize,
		[]blockstore.Extent{{Off: msg.Off, Data: msg.Data}}, [][]byte{delta})
	return cost, err
}

// storeExtents views recycled log extents as block-store extents, each
// folded unscaled (Coeff 1) by a Fold.
func storeExtents(exts []logpool.Extent) []blockstore.Extent {
	out := make([]blockstore.Extent, len(exts))
	for i, e := range exts {
		out[i] = blockstore.Extent{Off: e.Off, Coeff: 1, Data: e.Data}
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
			gaps = append(gaps, ival{cur, min(iv.lo, hi)})
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
