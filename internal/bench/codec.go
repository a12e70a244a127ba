package bench

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/transport"
	"repro/internal/wire"
)

// codecBenchMsg is the frame every row of the codec report measures: a
// 64 KiB KWriteBlock with a realistic RS(4,2) placement — the stripe
// write's hot-path frame.
func codecBenchMsg() *wire.Msg {
	return &wire.Msg{
		Kind:  wire.KWriteBlock,
		From:  wire.ClientIDBase,
		Block: wire.BlockID{Ino: 42, Stripe: 7, Idx: 2},
		Data:  make([]byte, 64<<10),
		K:     4,
		M:     2,
		Loc:   wire.StripeLoc{Nodes: []wire.NodeID{1, 2, 3, 4, 5, 6}, Epoch: 3},
	}
}

// Codec is the wire-format trajectory: the binary codec's encode and
// decode ns/op and allocs/op on the 64 KiB KWriteBlock frame, real
// loopback round-trips/s on the multiplexed TCP transport (sequential
// and pipelined).
func Codec(ctx context.Context, _ Scale) (*Report, error) {
	rep := &Report{
		ID:     "codec",
		Title:  "Extension: wire codec and transport microbenchmarks (64 KiB KWriteBlock frame)",
		Header: []string{"benchmark", "ns/op", "MB/s", "B/op", "allocs/op"},
	}
	msg := codecBenchMsg()
	size := float64(msg.WireSize())

	type row struct {
		name string
		fn   func(b *testing.B)
	}
	binSeed := msg.AppendTo(nil)
	rows := []row{
		{"encode/binary", func(b *testing.B) {
			buf := msg.AppendTo(nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = msg.AppendTo(buf[:0])
			}
		}},
		{"decode/binary", func(b *testing.B) {
			var m wire.Msg
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := m.Decode(binSeed); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
	for _, r := range rows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res := testing.Benchmark(r.fn)
		nsOp := float64(res.NsPerOp())
		rep.Rows = append(rep.Rows, []string{
			r.name,
			fmt.Sprintf("%.0f", nsOp),
			fmt.Sprintf("%.0f", size/nsOp*1e3), // bytes/ns -> MB/s (1e-3 GB/s)
			fmt.Sprintf("%d", res.AllocedBytesPerOp()),
			fmt.Sprintf("%d", res.AllocsPerOp()),
		})
	}

	// Loopback round trips on the real transport: one multiplexed
	// connection, a 4 KiB ping payload.
	for _, pipelined := range []bool{false, true} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := benchLoopback(pipelined)
		if err != nil {
			return nil, err
		}
		name := "tcp-roundtrip/sequential"
		if pipelined {
			name = "tcp-roundtrip/pipelined"
		}
		nsOp := float64(res.NsPerOp())
		rep.Rows = append(rep.Rows, []string{
			name,
			fmt.Sprintf("%.0f", nsOp),
			fmt.Sprintf("%.0f rt/s", 1e9/nsOp),
			fmt.Sprintf("%d", res.AllocedBytesPerOp()),
			fmt.Sprintf("%d", res.AllocsPerOp()),
		})
	}

	return rep, nil
}

// benchLoopback measures one Call round trip on a real loopback TCP
// connection, sequentially or with GOMAXPROCS concurrent callers
// pipelined onto the shared connection.
func benchLoopback(pipelined bool) (testing.BenchmarkResult, error) {
	srv, err := transport.ServeTCP(1, "127.0.0.1:0", func(_ context.Context, m *wire.Msg) *wire.Resp {
		return &wire.Resp{Data: m.Data}
	})
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	defer srv.Close()
	cli := transport.NewTCPClient(map[wire.NodeID]string{1: srv.Addr()})
	defer cli.Close()
	ctx := context.Background()
	var failed error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		if pipelined {
			b.RunParallel(func(pb *testing.PB) {
				msg := &wire.Msg{Kind: wire.KPing, Data: make([]byte, 4<<10)}
				for pb.Next() {
					resp, err := cli.Call(ctx, 1, msg)
					if err != nil {
						failed = err
						b.Fatal(err)
					}
					resp.Release()
				}
			})
			return
		}
		msg := &wire.Msg{Kind: wire.KPing, Data: make([]byte, 4<<10)}
		for i := 0; i < b.N; i++ {
			resp, err := cli.Call(ctx, 1, msg)
			if err != nil {
				failed = err
				b.Fatal(err)
			}
			// Honor the pooled-buffer contract: without the Release every
			// round trip misses the frame pool and B/op triples.
			resp.Release()
		}
	})
	return res, failed
}
