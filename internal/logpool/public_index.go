package logpool

import "time"

// Index is the standalone two-level-index building block (offset-sorted,
// locality-merging extent list with a page bitmap) exported for strategy
// code that needs the merging semantics outside a pool — PARIX's
// new/original value logs and TSUE's Equation-5 delta merging.
//
// An Index is not safe for concurrent use, and inserts mutate extents in
// place (see blockIndex.insert): slices returned by Lookup and
// Extents alias internal storage and are valid only while the caller's
// lock excludes Insert. Copy what must outlive the lock.
type Index struct {
	bi blockIndex
}

// NewIndex creates an index with the given merge mode.
func NewIndex(mode MergeMode) *Index { return &Index{bi: blockIndex{mode: mode}} }

// Insert merges [off, off+len(data)) into the index (data is copied).
func (x *Index) Insert(off uint32, data []byte, v time.Duration) { x.bi.insert(off, data, v) }

// Lookup returns the bytes of [off, off+size) if fully covered. The
// result aliases internal storage until the next Insert.
func (x *Index) Lookup(off, size uint32) ([]byte, bool) { return x.bi.lookup(off, size) }

// Overlay applies indexed extents intersecting dst (starting at off).
func (x *Index) Overlay(off uint32, dst []byte) { x.bi.overlay(off, dst) }

// Extents returns the current extent list. Both the list and each
// extent's Data alias internal storage until the next Insert.
func (x *Index) Extents() []Extent { return x.bi.extents }

// Bytes returns the merged payload footprint.
func (x *Index) Bytes() int64 { return x.bi.bytes }
