package store

import (
	"context"
	"os"
	"time"

	"repro/internal/framelog"
	"repro/internal/wire"
)

// Layer is a named handle into the engine's segment files — one per
// log pool. It satisfies logpool.Persist structurally (this package
// does not import logpool; the wiring layer passes the handle across).
// Persist errors are swallowed: after Crash the engine is frozen by
// design, and a real I/O failure on the simulated data path must not
// take down the pool — the entry simply will not survive a restart.
type Layer struct {
	e    *Engine
	name string
}

// Layer returns the persist handle for the named pool.
func (e *Engine) Layer(name string) *Layer { return &Layer{e: e, name: name} }

// AppendEntry durably appends one log entry under (layer, gen) before
// the pool acknowledges it.
func (l *Layer) AppendEntry(gen uint64, block wire.BlockID, off uint32, v int64, data []byte) {
	e := l.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return
	}
	sf, err := e.segFor(l.name, gen)
	if err != nil {
		return
	}
	seq := e.seq
	e.seq++
	before := sf.log.Size()
	var head [headCap]byte
	if sf.log.Append(segEntry, appendSegEntry(head[:0], seq, block, off, v), data) != nil {
		return
	}
	e.stats.SegAppends++
	e.stats.SegBytes += sf.log.Size() - before
}

// FoldBlock marks every entry for block in (layer, gen) as folded:
// its delta has been recycled into parity and must not replay.
func (l *Layer) FoldBlock(gen uint64, block wire.BlockID) {
	e := l.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return
	}
	sf, ok := e.segs[segKey{l.name, gen}]
	if !ok {
		return
	}
	var head [headCap]byte
	sf.log.Append(segFoldBlock, appendBlockID(head[:0], block), nil)
}

// FoldUnit marks the whole generation folded; the file becomes
// compaction garbage.
func (l *Layer) FoldUnit(gen uint64) {
	e := l.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return
	}
	sf, ok := e.segs[segKey{l.name, gen}]
	if !ok {
		return
	}
	if sf.log.Append(segFoldUnit, nil, nil) == nil {
		sf.unit = true
	}
}

// segFor opens (or returns) the active segment file for (layer, gen),
// writing the identifying header record on creation.
func (e *Engine) segFor(layer string, gen uint64) (*segFile, error) {
	k := segKey{layer, gen}
	if sf, ok := e.segs[k]; ok {
		return sf, nil
	}
	path := segPath(e.dir, e.era, layer, gen)
	log, err := framelog.Create(path)
	if err != nil {
		return nil, err
	}
	if err := log.Append(segHeader, appendSegHeader(nil, layer, gen), nil); err != nil {
		log.Close()
		return nil, err
	}
	sf := &segFile{log: log, path: path}
	e.segs[k] = sf
	return sf, nil
}

// ---- replay of a previous incarnation's segments ----

// ReplayPending returns how many unfolded entries the last Open
// recovered.
func (e *Engine) ReplayPending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.replayEntries)
}

// Replay visits the recovered entries in original append order. The
// owner re-appends them through its pools (which re-persists them
// under this incarnation's era); FinishReplay then deletes the old
// files.
func (e *Engine) Replay(fn func(SegEntry)) {
	e.mu.Lock()
	ents := e.replayEntries
	e.mu.Unlock()
	for _, se := range ents {
		fn(se)
	}
}

// FinishReplay deletes the previous era's segment files once their
// surviving entries have been re-appended.
func (e *Engine) FinishReplay() {
	e.mu.Lock()
	files := e.replayFiles
	e.replayFiles, e.replayEntries = nil, nil
	e.mu.Unlock()
	for _, path := range files {
		os.Remove(path)
	}
}

// ---- background compaction ----

// CompactGate admits compaction I/O. The cluster wires it to the
// repair scheduler so segment reclamation is classified maintenance
// traffic and capped alongside rebuild/drain work; a nil gate admits
// everything immediately.
type CompactGate func(ctx context.Context, bytes int64) error

// CompactNow deletes every fully folded segment file, admitting each
// file's size through the gate first. It returns the bytes reclaimed.
func (e *Engine) CompactNow(ctx context.Context, gate CompactGate) (int64, error) {
	e.mu.Lock()
	var dead []*segFile
	for k, sf := range e.segs {
		if sf.unit {
			dead = append(dead, sf)
			delete(e.segs, k)
		}
	}
	e.mu.Unlock()
	var total int64
	for _, sf := range dead {
		size := sf.log.Size()
		if gate != nil {
			if err := gate(ctx, size); err != nil {
				return total, err
			}
		}
		sf.log.Close()
		os.Remove(sf.path)
		total += size
		e.mu.Lock()
		e.stats.CompactedFiles++
		e.stats.CompactedBytes += size
		e.mu.Unlock()
	}
	return total, nil
}

// StartCompactor runs CompactNow on a ticker until Crash or Close.
func (e *Engine) StartCompactor(gate CompactGate, interval time.Duration) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	e.mu.Lock()
	if e.compactStop != nil || e.crashed {
		e.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	e.compactStop, e.compactDone = stop, done
	e.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		ctx := context.Background()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				e.CompactNow(ctx, gate)
			}
		}
	}()
}

func (e *Engine) stopCompactor() {
	e.mu.Lock()
	stop, done := e.compactStop, e.compactDone
	e.compactStop, e.compactDone = nil, nil
	e.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}
