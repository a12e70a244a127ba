// Package logpool implements the TSUE log-pool structure (paper §3.2):
// fixed-size log units managed in a FIFO queue with the four-state
// lifecycle EMPTY → RECYCLABLE → RECYCLING → RECYCLED, a two-level index
// (block hash map + offset-sorted extent list + page bitmap, §3.3.1) that
// exploits the spatio-temporal locality of update streams, and a
// read-cache role for retained units (§3.3.3).
//
// The same pool type backs all three log layers — DataLog, DeltaLog and
// ParityLog — differing only in merge semantics: data logs overwrite
// (newest data wins, Eq. 4), delta and parity logs fold by XOR (Eq. 3).
//
// Pools are correctness-bearing state: recovery's consistency
// requirement (§2.3.2) is that every pool drains — recycles down to the
// backing blocks — before a failed node's stripes are reconstructed,
// which internal/ecfs enforces via the phase-ordered KDrainLogs
// broadcast ahead of every rebuild.
package logpool

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/gf256"
	"repro/internal/wire"
)

// MergeMode selects how same-address log records combine.
type MergeMode int

const (
	// Overwrite keeps only the newest bytes for an address (DataLog:
	// the latest update of a location supersedes earlier ones, Eq. 4).
	Overwrite MergeMode = iota
	// XorFold combines same-address records by XOR (DeltaLog and
	// ParityLog: deltas accumulate by field addition, Eq. 3).
	XorFold
	// NoMerge disables locality exploitation entirely; every record is
	// kept verbatim. Used by the Fig. 7 breakdown (baseline without
	// O1/O2) and by baseline strategies such as FL.
	NoMerge
)

func (m MergeMode) String() string {
	switch m {
	case Overwrite:
		return "overwrite"
	case XorFold:
		return "xorfold"
	case NoMerge:
		return "nomerge"
	default:
		return fmt.Sprintf("MergeMode(%d)", int(m))
	}
}

// Extent is a contiguous run of logged bytes within one block.
type Extent struct {
	Off  uint32
	Data []byte
	// V is the earliest virtual arrival time folded into this extent,
	// used for residence-time statistics (paper Table 2).
	V time.Duration
}

// End returns the exclusive end offset of the extent.
func (e Extent) End() uint32 { return e.Off + uint32(len(e.Data)) }

// bitmapPage is the granularity of the per-block presence bitmap used to
// short-circuit queries that cannot hit (paper §3.3.1).
const bitmapPage = 4 << 10

// blockIndex is the second index level: the extents logged for one block.
// In merging modes the extents are sorted by offset, non-overlapping and
// non-adjacent (adjacent runs are concatenated on insert); in NoMerge
// mode they are kept verbatim in arrival order.
type blockIndex struct {
	mode    MergeMode
	extents []Extent
	bitmap  []uint64
	bytes   int64 // summed extent payload (merged footprint)
}

func (bi *blockIndex) setBitmap(off, end uint32) {
	for p := off / bitmapPage; p <= (end-1)/bitmapPage; p++ {
		word, bit := p/64, p%64
		for int(word) >= len(bi.bitmap) {
			bi.bitmap = append(bi.bitmap, 0)
		}
		bi.bitmap[word] |= 1 << bit
	}
}

// mayContain reports whether any page of [off, end) is marked present.
func (bi *blockIndex) mayContain(off, end uint32) bool {
	if end <= off {
		return false
	}
	for p := off / bitmapPage; p <= (end-1)/bitmapPage; p++ {
		word, bit := p/64, p%64
		if int(word) >= len(bi.bitmap) {
			return false
		}
		if bi.bitmap[word]&(1<<bit) != 0 {
			return true
		}
	}
	return false
}

// insert merges [off, off+len(data)) into the index under the index's
// merge mode, in one pass over the record's bytes. The data slice is
// copied; callers may reuse their buffer.
//
// Cost model: a record that starts inside one extent or at its tail is
// applied in place — overlapping bytes are overwritten or XOR-folded
// where they lie and the remainder grows the extent with amortised
// append — so it costs O(len(data)) whatever the extent's size. Only a
// record that extends an extent's head or bridges several extents
// rebuilds the merged extent. Extents therefore mutate in place: a slice
// obtained from the index is valid only while the caller's lock excludes
// inserts.
func (bi *blockIndex) insert(off uint32, data []byte, v time.Duration) {
	if len(data) == 0 {
		return
	}
	end := off + uint32(len(data))
	bi.setBitmap(off, end)
	if bi.mode == NoMerge {
		bi.extents = append(bi.extents, Extent{Off: off, Data: slices.Clone(data), V: v})
		bi.bytes += int64(len(data))
		return
	}
	// Locate the run of extents that overlap or touch [off, end).
	// extents are sorted by Off; find first with End() >= off and the
	// run while Off <= end (touching counts, to concatenate adjacency).
	first := sort.Search(len(bi.extents), func(i int) bool { return bi.extents[i].End() >= off })
	last := first
	for last < len(bi.extents) && bi.extents[last].Off <= end {
		last++
	}
	if first == last {
		// No overlap/adjacency: plain insert.
		bi.extents = append(bi.extents, Extent{})
		copy(bi.extents[first+1:], bi.extents[first:])
		bi.extents[first] = Extent{Off: off, Data: slices.Clone(data), V: v}
		bi.bytes += int64(len(data))
		return
	}
	if e := &bi.extents[first]; last-first == 1 && e.Off <= off {
		// One extent, and the record does not reach below its head.
		k := min(e.End(), end) - off // bytes landing on indexed content
		bi.fold(e.Data[off-e.Off:][:k], data[:k])
		if rest := data[k:]; len(rest) > 0 {
			e.Data = append(e.Data, rest...)
			bi.bytes += int64(len(rest))
		}
		if v < e.V {
			e.V = v
		}
		return
	}
	// Head extension or bridge: rebuild the run and the record into one
	// extent covering the union.
	lo, hi := off, end
	minV := v
	for i := first; i < last; i++ {
		e := bi.extents[i]
		if e.Off < lo {
			lo = e.Off
		}
		if e.End() > hi {
			hi = e.End()
		}
		if e.V < minV {
			minV = e.V
		}
	}
	buf := make([]byte, hi-lo)
	for i := first; i < last; i++ {
		e := bi.extents[i]
		copy(buf[e.Off-lo:], e.Data)
		bi.bytes -= int64(len(e.Data))
	}
	bi.fold(buf[off-lo:end-lo], data) // gaps are zero: folding there places
	merged := Extent{Off: lo, Data: buf, V: minV}
	bi.extents = append(bi.extents[:first+1], bi.extents[last:]...)
	bi.extents[first] = merged
	bi.bytes += int64(len(buf))
}

// fold combines src into already-indexed (or zeroed) bytes dst under
// the merge mode: newest wins, or XOR accumulation.
func (bi *blockIndex) fold(dst, src []byte) {
	if bi.mode == XorFold {
		gf256.XorSlice(dst, src)
	} else {
		copy(dst, src)
	}
}

// lookup assembles [off, off+size) from the index. It returns (data,
// true) only when the range is fully covered — the read-cache fast path.
func (bi *blockIndex) lookup(off, size uint32) ([]byte, bool) {
	end := off + size
	if !bi.mayContain(off, end) {
		return nil, false
	}
	if bi.mode == NoMerge {
		// Arrival-ordered extents: serve only exact containment by the
		// newest covering record.
		for i := len(bi.extents) - 1; i >= 0; i-- {
			e := bi.extents[i]
			if e.Off <= off && e.End() >= end {
				return e.Data[off-e.Off : end-e.Off], true
			}
		}
		return nil, false
	}
	i := sort.Search(len(bi.extents), func(i int) bool { return bi.extents[i].End() > off })
	if i >= len(bi.extents) {
		return nil, false
	}
	e := bi.extents[i]
	if e.Off <= off && e.End() >= end {
		return e.Data[off-e.Off : end-e.Off], true
	}
	return nil, false
}

// overlay applies the indexed extents intersecting [off, off+len(dst))
// onto dst (dst starts at block offset off). Used on the read path to
// give read-your-writes over the base block content. In NoMerge mode
// extents are applied in arrival order, so the newest record wins.
func (bi *blockIndex) overlay(off uint32, dst []byte) {
	end := off + uint32(len(dst))
	if !bi.mayContain(off, end) {
		return
	}
	if bi.mode == NoMerge {
		for _, e := range bi.extents {
			if e.Off >= end || e.End() <= off {
				continue
			}
			from, to := max(e.Off, off), min(e.End(), end)
			copy(dst[from-off:to-off], e.Data[from-e.Off:to-e.Off])
		}
		return
	}
	i := sort.Search(len(bi.extents), func(i int) bool { return bi.extents[i].End() > off })
	for ; i < len(bi.extents) && bi.extents[i].Off < end; i++ {
		e := bi.extents[i]
		from, to := max(e.Off, off), min(e.End(), end)
		copy(dst[from-off:to-off], e.Data[from-e.Off:to-e.Off])
	}
}

// BlockExtents is the per-block recycle work unit handed to RecycleFunc.
type BlockExtents struct {
	Block   wire.BlockID
	Extents []Extent
}
