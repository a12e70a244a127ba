package update

import (
	"context"
	"fmt"
	"time"

	"repro/internal/blockstore"
	"repro/internal/sim"
	"repro/internal/wire"
)

// fo is the Full-Overwrite baseline [Aguilera et al., DSN'05]: in-place
// updates of the data block AND every parity block, all on the
// synchronous path. Every access is small-grained and random; the update
// path is the longest of all methods (paper Fig. 1).
type fo struct {
	cfg Config
	logLayers
}

func newFO(cfg Config, env Env) (*fo, error) {
	f := &fo{cfg: cfg}
	return f, f.declare("fo", cfg, env)
}

func (f *fo) Name() string { return "fo" }

func (f *fo) Update(ctx context.Context, msg *wire.Msg) (time.Duration, error) {
	// In-place parity updates at every parity OSD, synchronously.
	return updateInPlace(ctx, f.env, f.cfg, msg, wire.KParityDelta)
}

func (f *fo) Handle(ctx context.Context, msg *wire.Msg) *wire.Resp {
	switch msg.Kind {
	case wire.KParityDelta:
		cost, err := applyParityDeltaInPlace(f.env, f.cfg, msg)
		if err != nil {
			return errResp(err)
		}
		return okResp(cost)
	default:
		return errResp(fmt.Errorf("fo: unexpected message %v", msg.Kind))
	}
}

// applyParityDeltaInPlace is the in-place parity read-modify-write shared
// by FO and FL: newParity = oldParity + coeff * dataDelta (Eq. 2).
func applyParityDeltaInPlace(env Env, cfg Config, msg *wire.Msg) (time.Duration, error) {
	code, err := env.Code(int(msg.K), int(msg.M))
	if err != nil {
		return 0, err
	}
	j := int(msg.Block.Idx) - int(msg.K)
	if j < 0 || j >= int(msg.M) {
		return 0, fmt.Errorf("parity delta for non-parity block %v", msg.Block)
	}
	return env.Store().Fold(sim.ClassForegroundWrite, msg.Block, cfg.BlockSize,
		[]blockstore.Extent{{Off: msg.Off, Coeff: code.Coeff(j, int(msg.Idx)), Data: msg.Data}})
}
