package update

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/blockstore"
	"repro/internal/gf256"
	"repro/internal/sim"
	"repro/internal/wire"
)

// plr is Parity Logging with Reserved Space [Chan et al., FAST'14]: each
// parity block has a log region reserved adjacent to it. Recycling is
// cheap (the log sits next to the parity block, so replay is sequential)
// but appends land in per-block reserved regions scattered across the
// device, so the high-frequency append path becomes random I/O — which is
// why PLR measures *below* PL on SSD clusters in the paper's Fig. 5.
// When a block's reserved region fills, it is recycled inline with the
// update (the paper: "PLR integrates log recycle process into the update
// process"), adding latency spikes.
type plr struct {
	cfg Config
	logLayers

	mu   sync.Mutex
	logs map[wire.BlockID]*plrLog
}

type plrLog struct {
	mu      sync.Mutex
	entries []plrEntry
	bytes   int64
}

// plrEntry is one logged parity delta, scaled by its sender.
type plrEntry struct {
	off   uint32
	delta []byte
}

func newPLR(cfg Config, env Env) (*plr, error) {
	if err := refuseDurable("plr", cfg); err != nil {
		return nil, err
	}
	p := &plr{cfg: cfg, logs: make(map[wire.BlockID]*plrLog)}
	return p, p.declare("plr", cfg, env)
}

func (p *plr) Name() string { return "plr" }

func (p *plr) Update(ctx context.Context, msg *wire.Msg) (time.Duration, error) {
	return updateInPlace(ctx, p.env, p.cfg, msg, wire.KParityLogAdd)
}

func (p *plr) logFor(b wire.BlockID) *plrLog {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.logs[b]
	if l == nil {
		l = &plrLog{}
		p.logs[b] = l
	}
	return l
}

func (p *plr) Handle(ctx context.Context, msg *wire.Msg) *wire.Resp {
	switch msg.Kind {
	case wire.KParityLogAdd:
		l := p.logFor(msg.Block)
		l.mu.Lock()
		defer l.mu.Unlock()
		return applyList(msg, func(r ExtentRec) time.Duration {
			l.entries = append(l.entries, plrEntry{off: r.Off, delta: bytes.Clone(r.Data)})
			l.bytes += int64(len(r.Data)) + 32
			// The reserved region is adjacent to *this* parity block, far
			// from other blocks' regions: the append is a random write.
			cost := p.env.Dev().Write(sim.ClassOther, int64(len(r.Data))+32, true, false)
			if l.bytes >= p.cfg.ReservedSpace {
				// Inline recycle: the update that fills the region pays
				// for draining it.
				cost += p.recycleLocked(msg.Block, l)
			}
			return cost
		})
	default:
		return errResp(fmt.Errorf("plr: unexpected message %v", msg.Kind))
	}
}

// recycleLocked drains one block's reserved log: a sequential read of the
// adjacent log region, one sequential parity read, delta application, and
// one sequential overwrite. Caller holds l.mu.
func (p *plr) recycleLocked(b wire.BlockID, l *plrLog) time.Duration {
	if len(l.entries) == 0 {
		return 0
	}
	// Sequential replay of the adjacent log region — PLR's one saving
	// over PL (no random log re-reads).
	cost := p.env.Dev().Read(sim.ClassOther, l.bytes, false)
	// The parity span itself sits wherever this parity block landed on
	// the device, far from other blocks being recycled concurrently: the
	// logged deltas XOR into one span, which folds as one random
	// read-modify-write.
	lo, hi := l.entries[0].off, uint32(0)
	for _, e := range l.entries {
		lo, hi = min(lo, e.off), max(hi, e.off+uint32(len(e.delta)))
	}
	span := make([]byte, hi-lo)
	for _, e := range l.entries {
		gf256.XorSlice(span[e.off-lo:][:len(e.delta)], e.delta)
	}
	// A recycle has no caller to report a refused fold to; it is
	// charged nothing.
	fc, _ := p.env.Store().Fold(sim.ClassOther, b, p.cfg.BlockSize, []blockstore.Extent{{Off: lo, Coeff: 1, Data: span}})
	l.entries, l.bytes = nil, 0
	return cost + fc
}

// Drain recycles every block's reserved log in phase 3; PLR's logs are
// not log pools, so there are no layers to drain.
func (p *plr) Drain(ctx context.Context, phase int, dead []wire.NodeID) error {
	if phase != 3 {
		return nil
	}
	p.mu.Lock()
	blocks := make([]wire.BlockID, 0, len(p.logs))
	for b := range p.logs {
		blocks = append(blocks, b)
	}
	p.mu.Unlock()
	for _, b := range blocks {
		l := p.logFor(b)
		l.mu.Lock()
		p.recycleLocked(b, l)
		l.mu.Unlock()
	}
	return nil
}
