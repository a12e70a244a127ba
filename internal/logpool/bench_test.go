package logpool

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/wire"
)

// benchPool is a pool whose sealed units a recycler discards, so a
// benchmark's appends never run into the MaxUnits quota however large
// b.N gets.
func benchPool(b *testing.B, unitSize int64) *Pool {
	p := MustNewPool(Config{Name: "b", Mode: Overwrite, UnitSize: unitSize, MaxUnits: 2})
	r := StartRecycler(p, 1, func(BlockExtents, time.Duration) time.Duration { return 0 })
	b.Cleanup(func() {
		p.Close()
		r.Wait()
	})
	return p
}

// BenchmarkAppendHotBlock measures the append fast path under maximal
// temporal locality (every record hits one block) — the workload TSUE's
// two-level index is optimized for.
func BenchmarkAppendHotBlock(b *testing.B) {
	p := benchPool(b, 1<<30)
	block := wire.BlockID{Ino: 1}
	data := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Append(block, uint32(i%256)*4096, data, time.Duration(i))
	}
}

// BenchmarkAppendScattered measures appends across many blocks (the
// first index level).
func BenchmarkAppendScattered(b *testing.B) {
	p := benchPool(b, 64<<20)
	data := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block := wire.BlockID{Ino: uint64(i % 1024)}
		p.Append(block, uint32(i%64)*4096, data, time.Duration(i))
	}
}

// BenchmarkLookupCacheHit measures the read-cache fast path (§3.3.3).
func BenchmarkLookupCacheHit(b *testing.B) {
	p := MustNewPool(Config{Name: "b", Mode: Overwrite, UnitSize: 1 << 30, MaxUnits: 2})
	defer p.Close()
	block := wire.BlockID{Ino: 1}
	p.Append(block, 0, make([]byte, 64<<10), 0)
	dst := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.Lookup(block, uint32(i%60)<<10, len(dst), func() []byte { return dst }); !ok {
			b.Fatal("expected hit")
		}
	}
}

// BenchmarkInsertIntoCoveredExtent measures a 4 KiB record landing inside
// one existing extent: its cost must not depend on the extent's size.
func BenchmarkInsertIntoCoveredExtent(b *testing.B) {
	for _, size := range []int{64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("extent=%dKiB", size>>10), func(b *testing.B) {
			bi := &blockIndex{mode: Overwrite}
			bi.insert(0, make([]byte, size), 0)
			data := make([]byte, 4096)
			pages := size / len(data)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bi.insert(uint32(i%pages*len(data)), data, time.Duration(i))
			}
		})
	}
}
