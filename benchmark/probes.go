package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/erasure"
	"repro/internal/logpool"
	"repro/internal/mdslog"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Probes are fixed-iteration direct calls into single layers, about two
// seconds in total. They put a floor under the traced numbers: what one
// loopback round trip, one codec pass, one log append, one engine write
// or one stripe encode costs with nothing else running.

// timeEach runs f n times and returns the mean duration of one call.
func timeEach(n int, f func(i int) error) (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	return time.Since(t0) / time.Duration(n), nil
}

// mbps is bytes moved in d, in decimal MB/s.
func mbps(bytes int64, d time.Duration) float64 {
	return float64(bytes) / 1e6 / d.Seconds()
}

func runProbes(dataRoot string) (map[string]float64, error) {
	m := make(map[string]float64)
	ctx := context.Background()
	payload := make([]byte, blockSize)
	for i := range payload {
		payload[i] = byte(i*131 + 7)
	}
	block := wire.BlockID{Ino: 1}
	loc := wire.StripeLoc{Nodes: make([]wire.NodeID, geomK+geomM)}

	// transport (+wire): a handler that does nothing.
	srv, err := transport.ServeTCP(1, "127.0.0.1:0", func(context.Context, *wire.Msg) *wire.Resp { return &wire.Resp{} })
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	rpc := transport.NewTCPClient(map[wire.NodeID]string{1: srv.Addr()})
	defer rpc.Close()
	null := func(n, size int) (time.Duration, error) {
		return timeEach(n, func(int) error {
			resp, err := rpc.Call(ctx, 1, &wire.Msg{Kind: wire.KUpdate, Block: block, Data: payload[:size], Loc: loc})
			if err == nil {
				resp.Release()
			}
			return err
		})
	}
	d, err := null(3000, 4<<10)
	if err != nil {
		return nil, err
	}
	m["transport.null_rtt_4k_us"] = float64(d) / 1e3
	if d, err = null(1000, 256<<10); err != nil {
		return nil, err
	}
	m["transport.null_256k_MBps"] = mbps(256<<10, d)

	// wire: encode and decode one 4 KiB update.
	msg := &wire.Msg{Kind: wire.KUpdate, Block: block, Data: payload[:4<<10], K: geomK, M: geomM, Loc: loc}
	var buf []byte
	d, err = timeEach(100_000, func(int) error {
		buf = msg.AppendTo(buf[:0])
		return new(wire.Msg).Decode(buf)
	})
	if err != nil {
		return nil, err
	}
	m["wire.update_4k_codec_ns"] = float64(d)

	// logpool: memory-only appends with a recycler that discards.
	pool, err := logpool.NewPool(logpool.Config{Name: "probe", Mode: logpool.Overwrite, UnitSize: 4 << 20, MaxUnits: 4})
	if err != nil {
		return nil, err
	}
	rec := logpool.StartRecycler(pool, 2, func(logpool.BlockExtents, time.Duration) time.Duration { return 0 })
	d, _ = timeEach(50_000, func(i int) error {
		pool.Append(wire.BlockID{Ino: 1, Stripe: uint32(i % 16)}, uint32(i%200)*4096, payload[:4<<10], 0)
		return nil
	})
	pool.Close()
	rec.Wait()
	m["logpool.append_4k_ns"] = float64(d)

	// store and mdslog, in a scratch directory beside the durable data.
	dir, err := os.MkdirTemp(dataRoot, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	eng, err := store.Open(dir+"/store", store.Options{})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	if err := eng.WriteFull(block, payload); err != nil {
		return nil, err
	}
	if d, err = timeEach(5000, func(i int) error {
		return eng.WriteRange(block, uint32(i%200)*4096, payload[:4<<10])
	}); err != nil {
		return nil, err
	}
	m["store.write_range_4k_us"] = float64(d) / 1e3
	if d, err = timeEach(20_000, func(i int) error {
		_, err := eng.ReadRange(block, uint32(i%200)*4096, 4<<10)
		return err
	}); err != nil {
		return nil, err
	}
	m["store.read_range_4k_warm_us"] = float64(d) / 1e3

	oplog, _, _, err := mdslog.Open(dir+"/mds", mdslog.Options{})
	if err != nil {
		return nil, err
	}
	defer oplog.Close()
	if d, err = timeEach(20_000, func(i int) error {
		return oplog.Append(mdslog.Record{Kind: mdslog.KindBind, Ino: 1, Stripe: uint32(i), Nodes: loc.Nodes})
	}); err != nil {
		return nil, err
	}
	m["mdslog.append_us"] = float64(d) / 1e3

	// erasure: one stripe.
	code, err := erasure.New(geomK, geomM, erasure.Vandermonde)
	if err != nil {
		return nil, err
	}
	data := make([][]byte, geomK)
	for i := range data {
		data[i] = payload
	}
	var parity [][]byte
	if d, err = timeEach(20, func(int) error {
		parity, err = code.Encode(data)
		return err
	}); err != nil {
		return nil, err
	}
	m["erasure.encode_MBps"] = mbps(stripeSpan, d)
	d, _ = timeEach(50_000, func(int) error {
		code.ParityDelta(0, 0, payload[:4<<10])
		return nil
	})
	m["erasure.parity_delta_4k_ns"] = float64(d)
	if d, err = timeEach(20, func(int) error {
		shards := append(append([][]byte{nil}, data[1:]...), parity...)
		if err := code.Reconstruct(shards); err != nil {
			return err
		}
		if len(shards[0]) != blockSize {
			return fmt.Errorf("reconstruct probe rebuilt %d bytes", len(shards[0]))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	m["erasure.reconstruct_MBps"] = mbps(blockSize, d)
	return m, nil
}
