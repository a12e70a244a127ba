package bench

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/ecfs"
	"repro/internal/erasure"
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
// and pipelined), and multi-stripe file writes over it.
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

	// Multi-stripe file writes on the real transport: the cross-stripe
	// coalescing trajectory (ISSUE 8). One stub cluster and one warm
	// client serve both rows so the comparison is dial- and cache-fair;
	// "per-stripe" drives one WriteStripeContext per stripe (each stripe
	// its own batch), "coalesced" drives WriteFileContext (all stripes'
	// shard frames grouped per destination in one flush window).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	seqRes, coRes, wfBytes, err := benchWriteFile()
	if err != nil {
		return nil, err
	}
	for _, wf := range []struct {
		name string
		res  testing.BenchmarkResult
	}{{"writefile/per-stripe", seqRes}, {"writefile/coalesced", coRes}} {
		nsOp := float64(wf.res.NsPerOp())
		rep.Rows = append(rep.Rows, []string{
			wf.name,
			fmt.Sprintf("%.0f", nsOp),
			fmt.Sprintf("%.0f", float64(wfBytes)/nsOp*1e3),
			fmt.Sprintf("%d", wf.res.AllocedBytesPerOp()),
			fmt.Sprintf("%d", wf.res.AllocsPerOp()),
		})
	}
	if seq, co := seqRes.NsPerOp(), coRes.NsPerOp(); seq > 0 && co > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"cross-stripe write coalescing: %d-stripe file write %.2fx vs per-stripe (%d vs %d ns/op); single-core runners understate the win (the coalesced fan-out also overlaps per-destination flushes)",
			writeFileBenchStripes, float64(seq)/float64(co), co, seq))
	}

	return rep, nil
}

// writeFileBenchStripes is the stripe count of the writefile trajectory
// row — two full coalescing windows of small (8 KiB) blocks, so the
// comparison is round-trip-structure-bound: the per-stripe loop pays 16
// sequential batch flushes per destination, the coalesced path 2.
const writeFileBenchStripes = 16

// benchWriteFile measures a multi-stripe file write against a stub TCP
// cluster (an MDS that answers create/lookup with a fixed placement,
// K+M OSDs that ack KWriteBlock), both as a per-stripe
// WriteStripeContext loop and coalesced through WriteFileContext. One
// cluster, one client, and one warm-up write serve both modes, so
// neither row pays the connection dials or the cold placement lookup.
// Returns (per-stripe, coalesced, file bytes moved per op).
func benchWriteFile() (seq, co testing.BenchmarkResult, bytes int64, err error) {
	const (
		k, m      = 2, 1
		blockSize = 8 << 10
	)
	osdIDs := []wire.NodeID{1, 2, 3}
	loc := wire.StripeLoc{Nodes: osdIDs, Epoch: 1}
	addrs := make(map[wire.NodeID]string, k+m+1)
	var servers []*transport.TCPServer
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	mds, err := transport.ServeTCP(wire.MDSNode, "127.0.0.1:0", func(_ context.Context, msg *wire.Msg) *wire.Resp {
		switch msg.Kind {
		case wire.KMDSCreate:
			return &wire.Resp{Ino: 1}
		case wire.KMDSLookup:
			return &wire.Resp{Loc: loc}
		default:
			return &wire.Resp{}
		}
	})
	if err != nil {
		return seq, co, 0, err
	}
	servers = append(servers, mds)
	addrs[wire.MDSNode] = mds.Addr()
	for _, id := range osdIDs {
		osd, err := transport.ServeTCP(id, "127.0.0.1:0", func(_ context.Context, _ *wire.Msg) *wire.Resp {
			return &wire.Resp{}
		})
		if err != nil {
			return seq, co, 0, err
		}
		servers = append(servers, osd)
		addrs[id] = osd.Addr()
	}
	rpc := transport.NewTCPClient(addrs)
	defer rpc.Close()
	code, err := erasure.New(k, m, erasure.Vandermonde)
	if err != nil {
		return seq, co, 0, err
	}
	cli := ecfs.NewClient(wire.ClientIDBase, rpc, code, blockSize)
	ctx := context.Background()
	ino, err := cli.CreateContext(ctx, "bench-writefile")
	if err != nil {
		return seq, co, 0, err
	}
	span := cli.StripeSpan()
	data := make([]byte, writeFileBenchStripes*span)
	if _, err := cli.WriteFileContext(ctx, ino, data); err != nil {
		return seq, co, 0, err
	}
	var failed error
	seq = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := 0; s < writeFileBenchStripes; s++ {
				if _, err := cli.WriteStripeContext(ctx, ino, uint32(s), data[s*span:(s+1)*span]); err != nil {
					failed = err
					b.Fatal(err)
				}
			}
		}
	})
	if failed != nil {
		return seq, co, 0, failed
	}
	co = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cli.WriteFileContext(ctx, ino, data); err != nil {
				failed = err
				b.Fatal(err)
			}
		}
	})
	return seq, co, int64(len(data)), failed
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
