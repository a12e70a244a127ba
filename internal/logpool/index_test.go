package logpool

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/gf256"
)

func mk(n int, fill byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestInsertDisjoint(t *testing.T) {
	bi := &blockIndex{mode: Overwrite}
	bi.insert(100, mk(10, 1), 0)
	bi.insert(300, mk(10, 2), 0)
	bi.insert(0, mk(10, 3), 0)
	if len(bi.extents) != 3 {
		t.Fatalf("extents = %d, want 3", len(bi.extents))
	}
	// Sorted by offset.
	if bi.extents[0].Off != 0 || bi.extents[1].Off != 100 || bi.extents[2].Off != 300 {
		t.Fatalf("not sorted: %+v", bi.extents)
	}
	if bi.bytes != 30 {
		t.Fatalf("bytes = %d, want 30", bi.bytes)
	}
}

func TestInsertAdjacentConcatenates(t *testing.T) {
	bi := &blockIndex{mode: Overwrite}
	bi.insert(0, mk(8, 1), 0)
	bi.insert(8, mk(8, 2), 0) // touching: must concatenate
	if len(bi.extents) != 1 {
		t.Fatalf("adjacent extents not merged: %d", len(bi.extents))
	}
	e := bi.extents[0]
	if e.Off != 0 || len(e.Data) != 16 || e.Data[0] != 1 || e.Data[8] != 2 {
		t.Fatalf("merged extent wrong: %+v", e)
	}
}

func TestInsertOverwriteNewestWins(t *testing.T) {
	bi := &blockIndex{mode: Overwrite}
	bi.insert(0, mk(16, 1), 0)
	bi.insert(4, mk(4, 9), 0) // overlap in the middle
	if len(bi.extents) != 1 {
		t.Fatalf("extents = %d, want 1", len(bi.extents))
	}
	d := bi.extents[0].Data
	want := []byte{1, 1, 1, 1, 9, 9, 9, 9, 1, 1, 1, 1, 1, 1, 1, 1}
	if !bytes.Equal(d, want) {
		t.Fatalf("data = %v, want %v", d, want)
	}
	if bi.bytes != 16 {
		t.Fatalf("bytes = %d, want 16", bi.bytes)
	}
}

func TestInsertXorFolds(t *testing.T) {
	bi := &blockIndex{mode: XorFold}
	bi.insert(0, []byte{0x0f, 0x0f}, 0)
	bi.insert(0, []byte{0xf0, 0x01}, 0)
	if len(bi.extents) != 1 {
		t.Fatalf("extents = %d, want 1", len(bi.extents))
	}
	if !bytes.Equal(bi.extents[0].Data, []byte{0xff, 0x0e}) {
		t.Fatalf("xor result wrong: %v", bi.extents[0].Data)
	}
}

func TestInsertSpansMultipleExtents(t *testing.T) {
	bi := &blockIndex{mode: Overwrite}
	bi.insert(0, mk(4, 1), 0)
	bi.insert(8, mk(4, 2), 0)
	bi.insert(2, mk(8, 7), 0) // bridges both
	if len(bi.extents) != 1 {
		t.Fatalf("extents = %d, want 1", len(bi.extents))
	}
	e := bi.extents[0]
	if e.Off != 0 || len(e.Data) != 12 {
		t.Fatalf("span wrong: off=%d len=%d", e.Off, len(e.Data))
	}
	want := []byte{1, 1, 7, 7, 7, 7, 7, 7, 7, 7, 2, 2}
	if !bytes.Equal(e.Data, want) {
		t.Fatalf("data = %v, want %v", e.Data, want)
	}
}

func TestInsertNoMergeKeepsAll(t *testing.T) {
	bi := &blockIndex{mode: NoMerge}
	bi.insert(0, mk(8, 1), 0)
	bi.insert(0, mk(8, 2), 0)
	bi.insert(4, mk(8, 3), 0)
	if len(bi.extents) != 3 {
		t.Fatalf("NoMerge must keep all records: %d", len(bi.extents))
	}
	if bi.bytes != 24 {
		t.Fatalf("bytes = %d, want 24", bi.bytes)
	}
}

func TestInsertEmptyIgnored(t *testing.T) {
	bi := &blockIndex{mode: Overwrite}
	bi.insert(5, nil, 0)
	if len(bi.extents) != 0 {
		t.Fatal("empty insert must be ignored")
	}
}

func TestLookupCoverage(t *testing.T) {
	bi := &blockIndex{mode: Overwrite}
	bi.insert(100, mk(50, 4), 0)
	if _, ok := bi.lookup(100, 50); !ok {
		t.Fatal("full extent lookup must hit")
	}
	if d, ok := bi.lookup(110, 20); !ok || len(d) != 20 || d[0] != 4 {
		t.Fatal("interior lookup must hit")
	}
	if _, ok := bi.lookup(90, 20); ok {
		t.Fatal("partially covered lookup must miss")
	}
	if _, ok := bi.lookup(140, 20); ok {
		t.Fatal("right-overhang lookup must miss")
	}
	if _, ok := bi.lookup(0, 10); ok {
		t.Fatal("uncovered lookup must miss")
	}
}

func TestLookupNoMergeNewestWins(t *testing.T) {
	bi := &blockIndex{mode: NoMerge}
	bi.insert(0, mk(8, 1), 0)
	bi.insert(0, mk(8, 2), 0)
	d, ok := bi.lookup(0, 8)
	if !ok || d[0] != 2 {
		t.Fatalf("NoMerge lookup must serve newest: ok=%v d=%v", ok, d)
	}
}

func TestOverlay(t *testing.T) {
	bi := &blockIndex{mode: Overwrite}
	bi.insert(4, []byte{9, 9}, 0)
	bi.insert(10, []byte{8}, 0)
	dst := mk(12, 0)
	bi.overlay(0, dst)
	want := []byte{0, 0, 0, 0, 9, 9, 0, 0, 0, 0, 8, 0}
	if !bytes.Equal(dst, want) {
		t.Fatalf("overlay = %v, want %v", dst, want)
	}
	// Window not starting at 0.
	dst = mk(4, 0)
	bi.overlay(3, dst)
	want = []byte{0, 9, 9, 0}
	if !bytes.Equal(dst, want) {
		t.Fatalf("offset overlay = %v, want %v", dst, want)
	}
}

func TestOverlayNoMergeOrder(t *testing.T) {
	bi := &blockIndex{mode: NoMerge}
	bi.insert(0, mk(4, 1), 0)
	bi.insert(2, mk(4, 2), 0)
	dst := mk(6, 0)
	bi.overlay(0, dst)
	want := []byte{1, 1, 2, 2, 2, 2}
	if !bytes.Equal(dst, want) {
		t.Fatalf("overlay = %v, want %v", dst, want)
	}
}

func TestBitmapFastMiss(t *testing.T) {
	bi := &blockIndex{mode: Overwrite}
	bi.insert(0, mk(16, 1), 0)
	if bi.mayContain(1<<20, 1<<20+16) {
		t.Fatal("bitmap false positive far away")
	}
	if !bi.mayContain(0, 16) {
		t.Fatal("bitmap false negative")
	}
}

func TestVTracksEarliest(t *testing.T) {
	bi := &blockIndex{mode: Overwrite}
	bi.insert(0, mk(4, 1), 100)
	bi.insert(2, mk(4, 2), 50)
	if bi.extents[0].V != 50 {
		t.Fatalf("V = %v, want earliest 50", bi.extents[0].V)
	}
}

// refInsert is the rebuild-everything merge insert used until PR 13:
// every overlapping or adjacent record reallocates and copies the whole
// merged extent. Kept as the reference the in-place insert must match
// extent for extent.
func refInsert(bi *blockIndex, off uint32, data []byte, v time.Duration) {
	if len(data) == 0 {
		return
	}
	end := off + uint32(len(data))
	first := sort.Search(len(bi.extents), func(i int) bool { return bi.extents[i].End() >= off })
	last := first
	for last < len(bi.extents) && bi.extents[last].Off <= end {
		last++
	}
	lo, hi, minV := off, end, v
	for _, e := range bi.extents[first:last] {
		lo, hi, minV = min(lo, e.Off), max(hi, e.End()), min(minV, e.V)
	}
	buf := make([]byte, hi-lo)
	for _, e := range bi.extents[first:last] {
		copy(buf[e.Off-lo:], e.Data)
		bi.bytes -= int64(len(e.Data))
	}
	if bi.mode == XorFold {
		gf256.XorSlice(buf[off-lo:end-lo], data)
	} else {
		copy(buf[off-lo:], data)
	}
	bi.extents = slices.Replace(bi.extents, first, last, Extent{Off: lo, Data: buf, V: minV})
	bi.bytes += int64(len(buf))
}

// insertCase classifies a record against the extent list it is about to
// enter, so the differential test can prove it reached every merge path.
func insertCase(exts []Extent, off, end uint32) string {
	if off == end {
		return "empty"
	}
	var run []Extent
	for _, e := range exts {
		if e.End() >= off && e.Off <= end {
			run = append(run, e)
		}
	}
	switch {
	case len(run) == 0:
		return "disjoint"
	case len(run) > 1:
		return "bridge"
	case off < run[0].Off:
		return "head-extend"
	case off == run[0].End():
		return "touch-tail"
	case end > run[0].End():
		return "tail-extend"
	default:
		return "contained"
	}
}

// Differential property: under random Overwrite and XorFold sequences
// (scaled and plain records of every geometry) the index matches a flat
// per-byte model — sorted, non-overlapping, non-adjacent extents, bytes,
// min-V, lookup, overlay — and equals, extent for extent, what the old
// rebuild-everything algorithm produces.
func TestInsertMatchesModelAndReference(t *testing.T) {
	const space = 512
	for _, mode := range []MergeMode{Overwrite, XorFold} {
		seen := map[string]int{}
		for seed := int64(1); seed <= 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			bi, ref := &blockIndex{mode: mode}, &blockIndex{mode: mode}
			var val [space]byte
			var present [space]bool
			var recV [space]time.Duration // earliest record covering each byte
			for step := 0; step < 150; step++ {
				off := uint32(rng.Intn(space - 64))
				data := make([]byte, rng.Intn(49))
				rng.Read(data)
				v := time.Duration(rng.Intn(1000))
				c := byte(1)
				if rng.Intn(3) == 0 {
					c = byte(rng.Intn(256))
				}
				seen[insertCase(ref.extents, off, off+uint32(len(data)))]++

				bi.insertScaled(c, off, data, v)
				scaled := make([]byte, len(data))
				gf256.MulSlice(c, scaled, data)
				refInsert(ref, off, scaled, v)
				for j, b := range scaled {
					i := int(off) + j
					if mode == XorFold {
						val[i] ^= b
					} else {
						val[i] = b
					}
					if !present[i] || v < recV[i] {
						recV[i] = v
					}
					present[i] = true
				}

				if len(bi.extents) != len(ref.extents) || bi.bytes != ref.bytes {
					t.Fatalf("%v seed %d step %d: %d extents/%d bytes, reference %d/%d",
						mode, seed, step, len(bi.extents), bi.bytes, len(ref.extents), ref.bytes)
				}
				var total int64
				covered := 0
				for i, e := range bi.extents {
					if r := ref.extents[i]; e.Off != r.Off || e.V != r.V || !bytes.Equal(e.Data, r.Data) {
						t.Fatalf("%v seed %d step %d: extent %d = [%d,%d) V=%d, reference [%d,%d) V=%d (or bytes differ)",
							mode, seed, step, i, e.Off, e.End(), e.V, r.Off, r.End(), r.V)
					}
					if i > 0 && bi.extents[i-1].End() >= e.Off {
						t.Fatalf("%v seed %d step %d: extents %d and %d overlap or touch", mode, seed, step, i-1, i)
					}
					if (e.Off > 0 && present[e.Off-1]) || (e.End() < space && present[e.End()]) {
						t.Fatalf("%v seed %d step %d: extent %d does not span its whole run", mode, seed, step, i)
					}
					minV := recV[e.Off]
					for j := e.Off; j < e.End(); j++ {
						if !present[j] {
							t.Fatalf("%v seed %d step %d: extent %d covers unwritten byte %d", mode, seed, step, i, j)
						}
						minV = min(minV, recV[j])
					}
					if !bytes.Equal(e.Data, val[e.Off:e.End()]) || e.V != minV {
						t.Fatalf("%v seed %d step %d: extent %d differs from the model (V %d, want %d)", mode, seed, step, i, e.V, minV)
					}
					total += int64(len(e.Data))
					covered += len(e.Data)
				}
				if total != bi.bytes {
					t.Fatalf("%v seed %d step %d: bytes = %d, extents hold %d", mode, seed, step, bi.bytes, total)
				}
				for _, p := range present {
					if p {
						covered--
					}
				}
				if covered != 0 {
					t.Fatalf("%v seed %d step %d: coverage differs from the model by %d bytes", mode, seed, step, covered)
				}

				// lookup hits exactly the fully written ranges; overlay
				// replaces exactly the written bytes.
				qo := uint32(rng.Intn(space - 64))
				qn := uint32(1 + rng.Intn(64))
				full := true
				want := bytes.Repeat([]byte{0xEE}, int(qn))
				for j := range want {
					if present[int(qo)+j] {
						want[j] = val[int(qo)+j]
					} else {
						full = false
					}
				}
				got, ok := bi.lookup(qo, qn)
				if ok != full || (ok && !bytes.Equal(got, want)) {
					t.Fatalf("%v seed %d step %d: lookup(%d,%d) = %v, model says covered=%v", mode, seed, step, qo, qn, ok, full)
				}
				dst := bytes.Repeat([]byte{0xEE}, int(qn))
				bi.overlay(qo, dst)
				if !bytes.Equal(dst, want) {
					t.Fatalf("%v seed %d step %d: overlay(%d,%d) differs from the model", mode, seed, step, qo, qn)
				}
			}
		}
		for _, c := range []string{"empty", "disjoint", "contained", "tail-extend", "touch-tail", "head-extend", "bridge"} {
			if seen[c] == 0 {
				t.Errorf("%v: no %s insert was generated", mode, c)
			}
		}
	}
}

// A contained insert costs O(record): it never allocates, whatever the
// size of the extent it lands in (the rebuild it replaces allocated and
// copied the whole extent). BenchmarkInsertIntoCoveredExtent times the
// two sizes.
func TestContainedInsertDoesNotAllocate(t *testing.T) {
	data := make([]byte, 4096)
	for _, size := range []int{64 << 10, 1 << 20} {
		for _, mode := range []MergeMode{Overwrite, XorFold} {
			bi := &blockIndex{mode: mode}
			bi.insert(0, make([]byte, size), 0)
			i := 0
			a := testing.AllocsPerRun(100, func() {
				bi.insert(uint32(i%(size/len(data))*len(data)), data, 0)
				i++
			})
			if a != 0 {
				t.Errorf("%v: contained 4 KiB insert into a %d KiB extent: %v allocs, want 0", mode, size>>10, a)
			}
		}
	}
}

func TestMergeModeString(t *testing.T) {
	for m, want := range map[MergeMode]string{Overwrite: "overwrite", XorFold: "xorfold", NoMerge: "nomerge"} {
		if m.String() != want {
			t.Fatalf("%v", m)
		}
	}
	if MergeMode(9).String() == "" {
		t.Fatal("unknown mode should stringify")
	}
}

func TestExtentEnd(t *testing.T) {
	e := Extent{Off: 10, Data: mk(5, 0)}
	if e.End() != 15 {
		t.Fatal("End wrong")
	}
}
