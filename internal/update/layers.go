package update

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/logpool"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// layerSpec declares one log layer of an update method: TSUE's
// DataLog, DeltaLog and ParityLog (§3.1.2), FL's data log, PL's parity
// log, CoRD's collector and parity log. A layer is a set of pools, the
// Drain phase that forces them empty, the recyclers that empty them in
// real time, and its part in reads.
type layerSpec struct {
	// name keys the layer in LayerStats and names what it persists:
	// "<method>-<name>/osd<id>", and "<that>/<i>" for pool i.
	name string
	// phase is the Drain phase (1..DrainPhases) that flushes the layer.
	phase int
	// pools is the number of member pools, at least 1 for a pooled
	// layer. 0 declares a side log: the method indexes its records
	// itself, appends them through *persist, and takes them back at
	// replay through replay.
	pools int
	// pool configures every member pool; the table fills in Name,
	// Device and Persist.
	pool logpool.Config
	// A pooled layer recycles either block by block on workers threads
	// (block, logpool.StartRecycler) or a whole unit at a time (unit,
	// logpool.StartUnitRecycler).
	workers int
	block   logpool.RecycleFunc
	unit    logpool.UnitFunc
	// into receives a pooled layer's pool set.
	into **logpool.PoolSet
	// persist receives a side log's durable handle, nil without
	// Config.Persist.
	persist *logpool.Persist
	// replay takes back a side log's persisted record.
	replay func(block wire.BlockID, off uint32, v int64, data []byte)
	// read makes a pooled layer the one reads consult (at most one per
	// method): its pending content is laid over the store's bytes.
	read readRole
}

// readRole is a layer's part in reads.
type readRole uint8

const (
	readNone    readRole = iota // reads do not consult the layer
	readOverlay                 // pending content is laid over the store's (FL)
	readCache                   // ...and a range a unit covers is served from memory (TSUE, §3.3.3)
)

// declaredLayer is a layerSpec with its persisted name and pools.
type declaredLayer struct {
	layerSpec
	base string
	set  *logpool.PoolSet // nil for a side log
}

// logLayers is an update method's layer table. Every method embeds
// one, and it derives from the declarations the part of Strategy that
// is not the method's own: Read, Drain by phase, Settle, Close,
// LayerStats, MemoryBytes, the crash replay of persisted records and a
// replica replay that replays nothing. A method that declares no
// pooled layer (FO, PLR, PARIX) reads the store, drains and settles
// nothing, and reports no layers.
type logLayers struct {
	env       Env
	layers    []declaredLayer
	recyclers []*logpool.Recycler
	reader    *declaredLayer // the layer reads consult, nil for none
}

// declare binds the table to env and builds the layers of method in
// the given order — the order Settle waits in — each backed by
// cfg.Persist when it is set, then starts every recycler. On error no
// recycler has started.
func (l *logLayers) declare(method string, cfg Config, env Env, specs ...layerSpec) error {
	l.env = env
	for _, s := range specs {
		d := declaredLayer{layerSpec: s, base: fmt.Sprintf("%s-%s/osd%d", method, s.name, env.ID())}
		if s.pools == 0 {
			if cfg.Persist != nil {
				*s.persist = cfg.Persist.Layer(d.base)
			}
		} else {
			s.pool.Name, s.pool.Device, s.pool.Persist = d.base+"/", env.Dev(), cfg.Persist
			set, err := logpool.NewPoolSet(s.pools, s.pool)
			if err != nil {
				return err
			}
			d.set, *s.into = set, set
		}
		l.layers = append(l.layers, d)
	}
	for i, d := range l.layers {
		if d.read != readNone {
			l.reader = &l.layers[i]
		}
		if d.set == nil {
			continue
		}
		for _, p := range d.set.Pools() {
			if d.unit != nil {
				l.recyclers = append(l.recyclers, logpool.StartUnitRecycler(p, d.unit))
			} else {
				l.recyclers = append(l.recyclers, logpool.StartRecycler(p, d.workers, d.block))
			}
		}
	}
	return nil
}

// Read returns n bytes of block b from off with read-your-writes over
// the read layer (Strategy.Read). A range a unit of a cache layer
// covers is served from memory at no device cost (§3.3.3); a range the
// read layer holds pending content for is read from the store into a
// reply buffer with that content laid over it — FL's read penalty;
// every other range, and every read of a method without a read layer,
// lends the store's own bytes.
func (l *logLayers) Read(b wire.BlockID, off uint32, n int) ([]byte, func(), time.Duration, error) {
	if l.reader == nil {
		return l.env.Store().View(sim.ClassForegroundRead, b, off, n, true)
	}
	pool := l.reader.set.Pick(b)
	var release func()
	if l.reader.read == readCache {
		if buf, ok := pool.Lookup(b, off, n, func() (buf []byte) {
			buf, release = transport.ReplyBuf(n)
			return buf
		}); ok {
			return buf, release, 0, nil
		}
	}
	if !pool.Pending(b, off, n) {
		return l.env.Store().View(sim.ClassForegroundRead, b, off, n, true)
	}
	buf, release := transport.ReplyBuf(n)
	cost, err := fillThrough(pool, b, off, buf, func(dst []byte) (time.Duration, error) {
		return l.env.Store().ReadInto(sim.ClassForegroundRead, b, off, dst, true)
	})
	if err != nil {
		release()
		return nil, nil, 0, err
	}
	return buf, release, cost, nil
}

// fillThrough fills dst with base's read of block b from offset off and
// lays the pending content of b's pool over it. A unit that finishes
// recycling between the base read and the overlay is in neither: its
// store write landed after the read, and the overlay skips recycled
// units. So the read repeats into dst, each base read priced, until no
// unit of the pool finished recycling in between.
func fillThrough(pool *logpool.Pool, b wire.BlockID, off uint32, dst []byte, base func(dst []byte) (time.Duration, error)) (time.Duration, error) {
	var total time.Duration
	for {
		recycled := pool.Stats().UnitsRecycled
		cost, err := base(dst)
		if err != nil {
			return 0, err
		}
		total += cost
		pool.Overlay(b, off, dst)
		if pool.Stats().UnitsRecycled == recycled {
			return total, nil
		}
	}
}

// Drain flushes the layers of one phase; the cluster calls phase 1 on
// every node, then 2, then 3, so what one layer forwards lands before
// the next layer drains (§3.1.2 real-time recycle, forced to
// completion).
func (l *logLayers) Drain(ctx context.Context, phase int, dead []wire.NodeID) error {
	l.drain(phase)
	return nil
}

func (l *logLayers) drain(phase int) {
	for _, d := range l.layers {
		if d.set != nil && d.phase == phase {
			d.set.Drain(0)
		}
	}
}

// Settle waits until every sealed unit of every layer has recycled —
// the steady state of real-time recycling — without force-sealing
// active units. The benchmark harnesses call it to let asynchronous
// work finish before reading counters.
func (l *logLayers) Settle() {
	for _, d := range l.layers {
		if d.set != nil {
			d.set.WaitIdle()
		}
	}
}

// Close closes every pool, then waits for every recycler to exit.
func (l *logLayers) Close() {
	for _, d := range l.layers {
		if d.set != nil {
			d.set.Close()
		}
	}
	for _, r := range l.recyclers {
		r.Wait()
	}
}

// ReplayReplicas replays nothing: only TSUE, which overrides it, keeps
// replicas of its pending updates on peers.
func (l *logLayers) ReplayReplicas(ctx context.Context, p Placement, lost wire.BlockID, data []byte, down func(wire.NodeID) bool) (int64, time.Duration, error) {
	return 0, 0, nil
}

// LayerStats returns each pooled layer's summed pool statistics by
// layer name, for the paper's Table 2 and the breakdown analyses.
func (l *logLayers) LayerStats() map[string]logpool.Stats {
	out := make(map[string]logpool.Stats)
	for _, d := range l.layers {
		if d.set != nil {
			out[d.name] = d.set.Stats()
		}
	}
	return out
}

// MemoryBytes reports the configured log-buffer budget across layers —
// the quantity the paper's Fig. 6b sweeps (pools expand toward the
// quota under sustained load and shrink when idle, so the budget is the
// resident peak).
func (l *logLayers) MemoryBytes() int64 {
	var n int64
	for _, d := range l.layers {
		if d.set != nil {
			n += d.set.QuotaBytes()
		}
	}
	return n
}

// ReplayPersisted routes a record recovered from the durable segment
// store to the layer whose name it was persisted under: a pooled layer
// re-appends it through the normal path, which re-persists it under the
// new segment era, and a side log takes it through its replay. A
// record of a layer this configuration does not declare is dropped.
func (l *logLayers) ReplayPersisted(layer string, block wire.BlockID, off uint32, v int64, data []byte) {
	for _, d := range l.layers {
		if layer != d.base && !strings.HasPrefix(layer, d.base+"/") {
			continue
		}
		if d.set != nil {
			d.set.Append(block, off, data, time.Duration(v))
		} else {
			d.replay(block, off, v, data)
		}
		return
	}
}
