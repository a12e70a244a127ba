package gf256

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// refApply is the row-at-a-time coder Apply replaced: zero each output,
// then one MulAddSlice per coefficient. It is the reference the fused
// kernel must match byte for byte.
func refApply(m []byte, rows, cols int, out, in [][]byte) {
	for r := 0; r < rows; r++ {
		clear(out[r])
		for c := 0; c < cols; c++ {
			MulAddSlice(m[r*cols+c], out[r], in[c])
		}
	}
}

// oddShards cuts n shards of the given length out of one backing array
// at odd, unaligned offsets, filled from rng.
func oddShards(rng *rand.Rand, n, length int) [][]byte {
	backing := make([]byte, n*(length+3)+1)
	rng.Read(backing)
	shards := make([][]byte, n)
	for i := range shards {
		off := 1 + i*(length+3)
		shards[i] = backing[off : off+length : off+length]
	}
	return shards
}

// checkApply runs Apply on garbage-filled outputs and compares with the
// reference.
func checkApply(t testing.TB, rng *rand.Rand, rows, cols, length int) {
	t.Helper()
	m := make([]byte, rows*cols)
	rng.Read(m)
	m[rng.Intn(len(m))] = 0 // zero and unit coefficients take MulAddSlice's
	m[rng.Intn(len(m))] = 1 // shortcuts in the reference
	in := oddShards(rng, cols, length)
	got := oddShards(rng, rows, length) // pre-filled with garbage
	want := oddShards(rng, rows, length)
	NewTables(m, rows, cols).Apply(got, in)
	refApply(m, rows, cols, want, in)
	for r := range got {
		if !bytes.Equal(got[r], want[r]) {
			t.Fatalf("%dx%d matrix, %d bytes: output row %d differs from the reference", rows, cols, length, r)
		}
	}
}

func TestApplyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	lengths := []int{0, 1, 7, 1023, 1024, 1025}
	for cols := 1; cols <= 16; cols++ {
		for rows := 1; rows <= 8; rows++ {
			checkApply(t, rng, rows, cols, lengths[rng.Intn(len(lengths))])
		}
	}
	for _, length := range lengths {
		checkApply(t, rng, 4, 6, length)
		checkApply(t, rng, 8, 10, length)
	}
	checkApply(t, rng, 4, 6, 1<<20)
	checkApply(t, rng, 5, 7, 1<<20)
}

func FuzzApplyMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(6), uint16(1025))
	f.Add(int64(2), uint8(8), uint8(16), uint16(7))
	f.Add(int64(3), uint8(1), uint8(1), uint16(0))
	f.Add(int64(4), uint8(5), uint8(2), uint16(4096))
	f.Fuzz(func(t *testing.T, seed int64, rows, cols uint8, length uint16) {
		checkApply(t, rand.New(rand.NewSource(seed)), 1+int(rows)%8, 1+int(cols)%16, int(length))
	})
}

func TestApplyShapeMismatchPanics(t *testing.T) {
	tab := NewTables([]byte{1, 2, 3, 4}, 2, 2)
	sh := func(lens ...int) [][]byte {
		s := make([][]byte, len(lens))
		for i, n := range lens {
			s[i] = make([]byte, n)
		}
		return s
	}
	for name, fn := range map[string]func(){
		"short matrix":  func() { NewTables([]byte{1, 2, 3}, 2, 2) },
		"output count":  func() { tab.Apply(sh(4), sh(4, 4)) },
		"input count":   func() { tab.Apply(sh(4, 4), sh(4)) },
		"input length":  func() { tab.Apply(sh(4, 4), sh(4, 5)) },
		"output length": func() { tab.Apply(sh(4, 3), sh(4, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch must panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestApplyDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := make([]byte, 8*10)
	rng.Read(m)
	tab := NewTables(m, 8, 10)
	in, out := oddShards(rng, 10, 4096), oddShards(rng, 8, 4096)
	if n := testing.AllocsPerRun(20, func() { tab.Apply(out, in) }); n != 0 {
		t.Fatalf("Apply allocates %v times per call, want 0", n)
	}
}

func BenchmarkApply(b *testing.B) {
	for _, bc := range []struct{ rows, cols, size int }{
		{4, 6, 4 << 10}, {4, 6, 1 << 20}, {1, 6, 1 << 20}, {8, 10, 1 << 20},
	} {
		b.Run(fmt.Sprintf("%dx%d_%dKB", bc.rows, bc.cols, bc.size>>10), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			m := make([]byte, bc.rows*bc.cols)
			rng.Read(m)
			tab := NewTables(m, bc.rows, bc.cols)
			in, out := oddShards(rng, bc.cols, bc.size), oddShards(rng, bc.rows, bc.size)
			b.SetBytes(int64(bc.cols * bc.size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.Apply(out, in)
			}
		})
	}
}
