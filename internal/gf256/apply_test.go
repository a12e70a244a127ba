package gf256

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// refApply is the row-at-a-time coder Apply replaced: zero each output,
// then one pure-Go MulAddSlice per coefficient. It is the reference both
// fused kernels must match byte for byte.
func refApply(m []byte, rows, cols int, out, in [][]byte) {
	for r := 0; r < rows; r++ {
		clear(out[r])
		for c := 0; c < cols; c++ {
			mulAddSlice(m[r*cols+c], out[r], in[c], false)
		}
	}
}

// kernels lists the kernel forms this CPU runs, as newTables' simd
// argument: the pure-Go form always, the AVX2 form where the CPU has it.
func kernels() []bool {
	if hasAVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

// kernelName names a kernel form in failure messages.
func kernelName(simd bool) string {
	if simd {
		return "avx2"
	}
	return "pure Go"
}

// testLengths straddle the boundaries of both kernels: the AVX2 forms'
// 32- and 64-byte steps, the pure-Go form's 1 KiB chunks, and a 4 KiB
// block.
var testLengths = []int{0, 1, 7, 31, 32, 33, 63, 64, 65, 1023, 1024, 1025, 4095, 4096, 4097}

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

// checkApply runs every kernel's Apply on garbage-filled outputs and
// compares with the reference.
func checkApply(t testing.TB, rng *rand.Rand, rows, cols, length int) {
	t.Helper()
	m := make([]byte, rows*cols)
	rng.Read(m)
	m[rng.Intn(len(m))] = 0 // zero and unit coefficients take MulAddSlice's
	m[rng.Intn(len(m))] = 1 // shortcuts in the reference
	in := oddShards(rng, cols, length)
	want := oddShards(rng, rows, length)
	refApply(m, rows, cols, want, in)
	for _, simd := range kernels() {
		got := oddShards(rng, rows, length) // pre-filled with garbage
		newTables(m, rows, cols, simd).Apply(got, in)
		for r := range got {
			if !bytes.Equal(got[r], want[r]) {
				t.Fatalf("%s kernel, %dx%d matrix, %d bytes: output row %d differs from the reference", kernelName(simd), rows, cols, length, r)
			}
		}
	}
}

func TestApplyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for cols := 1; cols <= 16; cols++ {
		for rows := 1; rows <= 8; rows++ {
			checkApply(t, rng, rows, cols, testLengths[rng.Intn(len(testLengths))])
		}
	}
	for _, length := range testLengths {
		for rows := 1; rows <= 4; rows++ {
			checkApply(t, rng, rows, 6, length)
		}
		checkApply(t, rng, 8, 10, length)
	}
	checkApply(t, rng, 4, 6, 1<<20)
	checkApply(t, rng, 5, 7, 1<<20+33)
}

func FuzzApplyMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(6), uint16(1025))
	f.Add(int64(2), uint8(8), uint8(16), uint16(7))
	f.Add(int64(3), uint8(1), uint8(1), uint16(0))
	f.Add(int64(4), uint8(5), uint8(2), uint16(4096))
	f.Add(int64(5), uint8(4), uint8(6), uint16(31))
	f.Add(int64(6), uint8(1), uint8(6), uint16(32))
	f.Add(int64(7), uint8(3), uint8(12), uint16(33))
	f.Add(int64(8), uint8(2), uint8(6), uint16(4095))
	f.Add(int64(9), uint8(7), uint8(9), uint16(4097))
	f.Add(int64(10), uint8(4), uint8(6), uint16(65))
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
	in, out := oddShards(rng, 10, 4096), oddShards(rng, 8, 4096)
	for _, simd := range kernels() {
		tab := newTables(m, 8, 10, simd)
		if n := testing.AllocsPerRun(20, func() { tab.Apply(out, in) }); n != 0 {
			t.Fatalf("%s kernel: Apply allocates %v times per call, want 0", kernelName(simd), n)
		}
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
