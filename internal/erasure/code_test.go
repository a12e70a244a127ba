package erasure

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/gf256"
)

func randShards(rng *rand.Rand, k, size int) [][]byte {
	shards := make([][]byte, k)
	for i := range shards {
		shards[i] = make([]byte, size)
		rng.Read(shards[i])
	}
	return shards
}

func TestNewRejectsBadParams(t *testing.T) {
	for _, km := range [][2]int{{0, 1}, {1, 0}, {-1, 2}, {200, 100}} {
		if _, err := New(km[0], km[1], Vandermonde); err == nil {
			t.Errorf("New(%d,%d) should fail", km[0], km[1])
		}
	}
	if _, err := New(4, 2, MatrixKind(99)); err == nil {
		t.Error("unknown matrix kind should fail")
	}
}

func TestEncodeVerifyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, kind := range []MatrixKind{Vandermonde, Cauchy} {
		for _, km := range [][2]int{{6, 2}, {6, 3}, {6, 4}, {12, 2}, {12, 3}, {12, 4}} {
			c := MustNew(km[0], km[1], kind)
			data := randShards(rng, c.K, 512)
			parity, err := c.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			ok, err := c.Verify(data, parity)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%v RS(%d,%d): freshly encoded parity does not verify", kind, c.K, c.M)
			}
			// Corrupt one byte: must no longer verify.
			data[0][0] ^= 0xff
			ok, _ = c.Verify(data, parity)
			if ok {
				t.Fatalf("%v RS(%d,%d): corrupted stripe verified", kind, c.K, c.M)
			}
		}
	}
}

func TestEncodeRejectsMismatchedShards(t *testing.T) {
	c := MustNew(4, 2, Vandermonde)
	shards := [][]byte{make([]byte, 8), make([]byte, 8), make([]byte, 9), make([]byte, 8)}
	if _, err := c.Encode(shards); err == nil {
		t.Fatal("Encode must reject unequal shard lengths")
	}
	if _, err := c.Encode(shards[:2]); err == nil {
		t.Fatal("Encode must reject wrong shard count")
	}
}

// refEncode is the row-at-a-time encoder Encode replaced, kept as the
// reference: one MulAddSlice per coefficient into zeroed parity.
func refEncode(c *Code, data [][]byte) [][]byte {
	parity := make([][]byte, c.M)
	for p := range parity {
		parity[p] = make([]byte, len(data[0]))
		for d, shard := range data {
			gf256.MulAddSlice(c.Coeff(p, d), parity[p], shard)
		}
	}
	return parity
}

func TestEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, kind := range []MatrixKind{Vandermonde, Cauchy} {
		for _, km := range [][2]int{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {6, 4}, {10, 8}, {12, 4}, {16, 5}} {
			c := MustNew(km[0], km[1], kind)
			for _, size := range []int{0, 1, 1023, 1025, 4096} {
				data := randShards(rng, c.K, size)
				got, err := c.Encode(data)
				if err != nil {
					t.Fatal(err)
				}
				for p, want := range refEncode(c, data) {
					if !bytes.Equal(got[p], want) {
						t.Fatalf("%v RS(%d,%d) %d bytes: parity %d differs from the reference", kind, c.K, c.M, size, p)
					}
				}
			}
		}
	}
}

// TestReconstructAllPatterns: every erasure pattern of up to M shards,
// crossed with every want list over the lost shards (none = all of
// them, single data, single parity, mixed), rebuilds exactly the wanted
// shards to the original stripe and leaves the others nil.
func TestReconstructAllPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, kind := range []MatrixKind{Vandermonde, Cauchy} {
		c := MustNew(4, 3, kind)
		data := randShards(rng, c.K, 256)
		parity, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		full := append(append([][]byte{}, data...), parity...)
		n := c.K + c.M
		for mask := 1; mask < 1<<n; mask++ {
			if popcount(mask) > c.M {
				continue
			}
			// wantMask 0 is the no-want call; the others run over the
			// non-empty subsets of the lost shards.
			for wantMask := 0; wantMask < 1<<n; wantMask++ {
				if wantMask&^mask != 0 {
					continue
				}
				shards := make([][]byte, n)
				var want []int
				for i := 0; i < n; i++ {
					if mask&(1<<i) == 0 {
						shards[i] = append([]byte(nil), full[i]...)
					}
					if wantMask&(1<<i) != 0 {
						want = append(want, i)
					}
				}
				if err := c.Reconstruct(shards, want...); err != nil {
					t.Fatalf("%v: reconstruct mask %b want %v: %v", kind, mask, want, err)
				}
				for i := 0; i < n; i++ {
					if mask&(1<<i) != 0 && wantMask != 0 && wantMask&(1<<i) == 0 {
						if shards[i] != nil {
							t.Fatalf("%v: mask %b want %v: shard %d rebuilt though not wanted", kind, mask, want, i)
						}
						continue
					}
					if !bytes.Equal(shards[i], full[i]) {
						t.Fatalf("%v: shard %d wrong after reconstructing mask %b want %v", kind, i, mask, want)
					}
				}
			}
		}
	}
}

// FuzzCodeMatchesReference draws a code (K <= 16, M <= 8, so parity and
// decode matrices of more than one row group and more than one column
// pass occur), a shard size, an erasure pattern and a want list from the
// seed: Encode must equal the row-by-row reference, and Reconstruct must
// restore exactly the wanted shards.
func FuzzCodeMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint16(1+seed*517))
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint16) {
		rng := rand.New(rand.NewSource(seed))
		c := MustNew(1+rng.Intn(16), 1+rng.Intn(8), MatrixKind(rng.Intn(2)))
		data := randShards(rng, c.K, int(size))
		parity, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		for p, want := range refEncode(c, data) {
			if !bytes.Equal(parity[p], want) {
				t.Fatalf("RS(%d,%d): parity %d differs from the reference", c.K, c.M, p)
			}
		}
		full := append(append([][]byte{}, data...), parity...)
		shards := append([][]byte{}, full...)
		lost := rng.Perm(len(full))[:1+rng.Intn(c.M)]
		for _, i := range lost {
			shards[i] = nil
		}
		want := lost[:rng.Intn(len(lost)+1)] // empty: rebuild all
		if err := c.Reconstruct(shards, want...); err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			want = lost
		}
		for _, i := range lost {
			if !slices.Contains(want, i) {
				if shards[i] != nil {
					t.Fatalf("RS(%d,%d): shard %d rebuilt though not wanted", c.K, c.M, i)
				}
			} else if !bytes.Equal(shards[i], full[i]) {
				t.Fatalf("RS(%d,%d): lost %v want %v: shard %d wrong", c.K, c.M, lost, want, i)
			}
		}
	})
}

func TestReconstructWant(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := MustNew(4, 2, Vandermonde)
	data := randShards(rng, c.K, 64)
	parity, _ := c.Encode(data)
	lose := func() [][]byte {
		s := append(append([][]byte{}, data...), parity...)
		s[1], s[4] = nil, nil
		return s
	}
	// A present shard in want is left alone, a repeated index is rebuilt
	// once, and the other lost shard stays nil.
	shards := lose()
	kept := &shards[0][0]
	if err := c.Reconstruct(shards, 0, 4, 4); err != nil {
		t.Fatal(err)
	}
	if &shards[0][0] != kept || !bytes.Equal(shards[4], parity[0]) || shards[1] != nil {
		t.Fatal("want = {present, lost, lost again} did not rebuild exactly the lost shard")
	}
	// Only present shards wanted: nothing to do, even below K survivors.
	shards = lose()
	shards[2], shards[3] = nil, nil
	if err := c.Reconstruct(shards, 0); err != nil {
		t.Fatalf("nothing to rebuild must not need K survivors: %v", err)
	}
	for _, idx := range []int{-1, 6} {
		if err := c.Reconstruct(lose(), idx); err == nil {
			t.Fatalf("want index %d must be rejected", idx)
		}
	}
}

// TestReconstructToMatchesReconstruct: decoding one lost shard into a
// garbage-filled buffer gives Reconstruct's shard, for every lost index
// and a rotating choice of the other shards missing, and leaves the
// shard slice as it was.
func TestReconstructToMatchesReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, c := range []*Code{MustNew(4, 2, Vandermonde), MustNew(6, 4, Cauchy)} {
		n := c.K + c.M
		data := randShards(rng, c.K, 300)
		parity, _ := c.Encode(data)
		full := append(append([][]byte{}, data...), parity...)
		for lost := 0; lost < n; lost++ {
			for shift := 0; shift < n; shift++ {
				shards := append([][]byte{}, full...)
				shards[lost] = nil
				for i, dropped := shift, 1; dropped < c.M; i++ { // exactly K survive
					if shards[i%n] != nil {
						shards[i%n] = nil
						dropped++
					}
				}
				ref := append([][]byte{}, shards...)
				if err := c.Reconstruct(ref, lost); err != nil {
					t.Fatal(err)
				}
				before := append([][]byte{}, shards...)
				dst := bytes.Repeat([]byte{0xEE}, 300)
				if err := c.ReconstructTo(dst, shards, lost); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dst, ref[lost]) || !bytes.Equal(dst, full[lost]) {
					t.Fatalf("RS(%d,%d) lost %d shift %d: ReconstructTo differs from Reconstruct", c.K, c.M, lost, shift)
				}
				for i := range shards {
					if (shards[i] == nil) != (before[i] == nil) {
						t.Fatalf("RS(%d,%d) lost %d: ReconstructTo changed slot %d", c.K, c.M, lost, i)
					}
				}
			}
		}
	}
	c := MustNew(4, 2, Vandermonde)
	shards := append(randShards(rng, c.K, 64), make([][]byte, c.M)...)
	shards[0] = nil
	if err := c.ReconstructTo(make([]byte, 63), shards, 0); err == nil {
		t.Fatal("a destination of the wrong length must be rejected")
	}
	if err := c.ReconstructTo(make([]byte, 64), shards, 6); err == nil {
		t.Fatal("a lost index out of range must be rejected")
	}
	if err := c.ReconstructTo(make([]byte, 64), shards, 0); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("with %d survivors: err = %v, want ErrTooFewShards", c.K-1, err)
	}
	// A present shard decodes to itself.
	full := append(randShards(rng, c.K, 64), make([][]byte, c.M)...)
	p, _ := c.Encode(full[:c.K])
	copy(full[c.K:], p)
	dst := make([]byte, 64)
	if err := c.ReconstructTo(dst, full, 5); err != nil || !bytes.Equal(dst, full[5]) {
		t.Fatalf("decoding present shard 5: err %v, equal %v", err, bytes.Equal(dst, full[5]))
	}
}

// TestCodeConcurrentUse shares one Code — and so its cached encode
// tables — between goroutines that encode and reconstruct at once; run
// under -race.
func TestCodeConcurrentUse(t *testing.T) {
	c := MustNew(6, 4, Vandermonde)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 20; iter++ {
				data := randShards(rng, c.K, 1+rng.Intn(3000))
				parity, err := c.Encode(data)
				if err != nil {
					t.Error(err)
					return
				}
				if ok, err := c.Verify(data, parity); err != nil || !ok {
					t.Errorf("goroutine %d: verify = %v, %v", g, ok, err)
					return
				}
				shards := append(append([][]byte{}, data...), parity...)
				lost := rng.Perm(len(shards))[:c.M]
				for _, i := range lost {
					shards[i] = nil
				}
				if err := c.Reconstruct(shards, lost[0]); err != nil {
					t.Error(err)
					return
				}
				full := append(append([][]byte{}, data...), parity...)
				if !bytes.Equal(shards[lost[0]], full[lost[0]]) {
					t.Errorf("goroutine %d: shard %d rebuilt wrong", g, lost[0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestVerifyAllocationsDoNotGrow gates Verify's streaming form: it
// encodes into a bounded scratch, so a 1 MiB stripe costs the same
// allocations as a 64-byte one. A corrupted last byte is still caught.
func TestVerifyAllocationsDoNotGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := MustNew(6, 4, Vandermonde)
	var counts []float64
	for _, size := range []int{64, verifyChunk + 1, 1 << 20} {
		data := randShards(rng, c.K, size)
		parity, _ := c.Encode(data)
		counts = append(counts, testing.AllocsPerRun(5, func() {
			if ok, err := c.Verify(data, parity); err != nil || !ok {
				t.Fatalf("%d-byte stripe: Verify = %v, %v", size, ok, err)
			}
		}))
		parity[c.M-1][size-1] ^= 1
		if ok, err := c.Verify(data, parity); err != nil || ok {
			t.Fatalf("%d-byte stripe with its last parity byte flipped: Verify = %v, %v", size, ok, err)
		}
	}
	for i, n := range counts {
		if n != counts[0] || n > 3 {
			t.Fatalf("Verify allocations by stripe size: %v (entry %d), want one constant of at most 3", counts, i)
		}
	}
}

// TestCodingAllocations gates what the coder allocates: Encode its M
// parity buffers and the slice holding them, a single-shard Reconstruct
// one shard-sized buffer plus bookkeeping that does not grow with the
// shard (index lists, the K x K matrices, one 6 KiB table set).
func TestCodingAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := MustNew(6, 4, Vandermonde)
	data := randShards(rng, c.K, 64<<10)
	parity, _ := c.Encode(data)
	if n := testing.AllocsPerRun(10, func() { c.Encode(data) }); n != float64(c.M+1) {
		t.Errorf("Encode: %v allocs, want %d", n, c.M+1)
	}
	shards := make([][]byte, c.K+c.M)
	var big int
	n := testing.AllocsPerRun(10, func() {
		copy(shards, data)
		copy(shards[c.K:], parity)
		shards[0], shards[7], shards[8], shards[9] = nil, nil, nil, nil
		if err := c.Reconstruct(shards, 0); err != nil {
			t.Fatal(err)
		}
		big = 0
		for _, i := range []int{0, 7, 8, 9} {
			big += len(shards[i])
		}
	})
	if big != 64<<10 {
		t.Errorf("single-shard Reconstruct produced %d bytes of shards, want one shard", big)
	}
	if n > 12 {
		t.Errorf("single-shard Reconstruct: %v allocs, want at most 12", n)
	}
}

func TestReconstructTooManyLost(t *testing.T) {
	c := MustNew(4, 2, Vandermonde)
	shards := make([][]byte, 6)
	for i := 0; i < 3; i++ { // only 3 survivors < K=4
		shards[i] = make([]byte, 16)
	}
	if err := c.Reconstruct(shards); err == nil {
		t.Fatal("expected error with fewer than K survivors")
	}
}

func TestReconstructNoOpWhenComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := MustNew(3, 2, Cauchy)
	data := randShards(rng, 3, 64)
	parity, _ := c.Encode(data)
	shards := append(append([][]byte{}, data...), parity...)
	before := make([][]byte, len(shards))
	for i, s := range shards {
		before[i] = append([]byte(nil), s...)
	}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], before[i]) {
			t.Fatal("Reconstruct modified complete stripe")
		}
	}
}

// TestIncrementalUpdateEquivalence is the core invariant behind every
// update strategy in the paper: applying parity deltas (Eq. 2) must yield
// exactly the parity of a full re-encode.
func TestIncrementalUpdateEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, kind := range []MatrixKind{Vandermonde, Cauchy} {
		c := MustNew(6, 3, kind)
		size := 128
		data := randShards(rng, c.K, size)
		parity, _ := c.Encode(data)

		// Apply 20 random sub-block updates incrementally.
		for i := 0; i < 20; i++ {
			d := rng.Intn(c.K)
			off := rng.Intn(size - 8)
			n := 1 + rng.Intn(8)
			newData := make([]byte, n)
			rng.Read(newData)
			old := append([]byte(nil), data[d][off:off+n]...)
			copy(data[d][off:off+n], newData)
			delta := DataDelta(old, newData)
			for p := 0; p < c.M; p++ {
				pd := c.ParityDelta(p, d, delta)
				gf256.XorSlice(parity[p][off:off+n], pd) // P^n = P^{n-1} + delta
			}
		}
		want, _ := c.Encode(data)
		for p := 0; p < c.M; p++ {
			if !bytes.Equal(parity[p], want[p]) {
				t.Fatalf("%v: incremental parity %d diverged from re-encode", kind, p)
			}
		}
	}
}

// TestFoldEquivalence checks Equation 3/4: folding N deltas of the same
// address equals the single old-to-latest delta.
func TestFoldEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	orig := make([]byte, 64)
	rng.Read(orig)
	cur := append([]byte(nil), orig...)
	acc := make([]byte, 64)
	for i := 0; i < 10; i++ {
		next := make([]byte, 64)
		rng.Read(next)
		gf256.XorSlice(acc, DataDelta(cur, next))
		cur = next
	}
	want := DataDelta(orig, cur)
	if !bytes.Equal(acc, want) {
		t.Fatal("folded deltas != end-to-end delta")
	}
}

// TestMergeDeltasEquivalence checks Equation 5: encoding the deltas of
// several data blocks (zero for the others) in one EncodeTo produces the
// same parity deltas as applying each block's delta individually.
func TestMergeDeltasEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	c := MustNew(6, 4, Vandermonde)
	size := 96
	deltas := make([][]byte, c.K)
	for d := range deltas {
		deltas[d] = make([]byte, size)
	}
	for _, d := range []int{0, 2, 5} {
		rng.Read(deltas[d])
	}
	merged := make([][]byte, c.M)
	for p := range merged {
		merged[p] = make([]byte, size)
	}
	c.EncodeTo(merged, deltas)
	for p := 0; p < c.M; p++ {
		want := make([]byte, size)
		for d, delta := range deltas {
			gf256.XorSlice(want, c.ParityDelta(p, d, delta))
		}
		if !bytes.Equal(merged[p], want) {
			t.Fatalf("merged parity delta %d mismatch", p)
		}
	}
}

func TestDataDeltaProperties(t *testing.T) {
	f := func(a, b []byte) bool {
		n := min(len(a), len(b))
		a, b = a[:n], b[:n]
		d := DataDelta(a, b)
		// old XOR delta == new
		got := append([]byte(nil), a...)
		for i := range got {
			got[i] ^= d[i]
		}
		return bytes.Equal(got, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if got := DataDelta([]byte{1, 2, 3}, []byte{1, 1, 1}); !bytes.Equal(got, []byte{0, 3, 2}) {
		t.Fatalf("DataDelta = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	DataDelta([]byte{1}, []byte{1, 2})
}

func TestCoeffMatchesEncode(t *testing.T) {
	// Parity of a one-hot data pattern isolates a single coefficient.
	c := MustNew(5, 3, Cauchy)
	data := make([][]byte, c.K)
	for i := range data {
		data[i] = make([]byte, 1)
	}
	for d := 0; d < c.K; d++ {
		for i := range data {
			data[i][0] = 0
		}
		data[d][0] = 1
		parity, _ := c.Encode(data)
		for p := 0; p < c.M; p++ {
			if parity[p][0] != c.Coeff(p, d) {
				t.Fatalf("Coeff(%d,%d) = %#x but encode gives %#x", p, d, c.Coeff(p, d), parity[p][0])
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if Vandermonde.String() != "vandermonde" || Cauchy.String() != "cauchy" {
		t.Fatal("MatrixKind.String wrong")
	}
	if MatrixKind(42).String() == "" {
		t.Fatal("unknown kind should still stringify")
	}
}

func BenchmarkEncodeRS6_4_4KB(b *testing.B)  { benchEncode(b, 6, 4, 4<<10) }
func BenchmarkEncodeRS6_4_1MB(b *testing.B)  { benchEncode(b, 6, 4, 1<<20) }
func BenchmarkEncodeRS12_4_1MB(b *testing.B) { benchEncode(b, 12, 4, 1<<20) }

// RS(10,8) runs the kernel's two groups of four parity rows.
func BenchmarkEncodeRS10_8_1MB(b *testing.B) { benchEncode(b, 10, 8, 1<<20) }

func benchEncode(b *testing.B, k, m, size int) {
	rng := rand.New(rand.NewSource(1))
	c := MustNew(k, m, Vandermonde)
	data := randShards(rng, k, size)
	b.SetBytes(int64(k * size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructRS6_4(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	c := MustNew(6, 4, Vandermonde)
	data := randShards(rng, 6, 1<<20)
	parity, _ := c.Encode(data)
	full := append(append([][]byte{}, data...), parity...)
	b.SetBytes(int64(6 << 20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards := make([][]byte, len(full))
		copy(shards, full)
		shards[0], shards[3], shards[7] = nil, nil, nil
		if err := c.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReconstructToRS6_4_1MB is the degraded-read shape decoded
// into one reused buffer.
func BenchmarkReconstructToRS6_4_1MB(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	c := MustNew(6, 4, Vandermonde)
	data := randShards(rng, 6, 1<<20)
	parity, _ := c.Encode(data)
	shards := append(append([][]byte{}, data...), parity...)
	shards[0], shards[7], shards[8], shards[9] = nil, nil, nil, nil
	dst := make([]byte, 1<<20)
	b.SetBytes(int64(6 << 20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ReconstructTo(dst, shards, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReconstructOneRS6_4_1MB is the degraded-read shape: K
// survivors fetched, the other M-1 slots nil, one shard wanted.
func BenchmarkReconstructOneRS6_4_1MB(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	c := MustNew(6, 4, Vandermonde)
	data := randShards(rng, 6, 1<<20)
	parity, _ := c.Encode(data)
	full := append(append([][]byte{}, data...), parity...)
	b.SetBytes(int64(6 << 20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards := make([][]byte, len(full))
		copy(shards, full)
		shards[0], shards[7], shards[8], shards[9] = nil, nil, nil, nil
		if err := c.Reconstruct(shards, 0); err != nil {
			b.Fatal(err)
		}
	}
}
