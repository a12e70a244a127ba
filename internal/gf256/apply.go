package gf256

import "fmt"

// Tables is a coefficient matrix over GF(2^8) compiled for Apply. Output
// rows are taken in groups of four, and each group reads the inputs
// once. NewTables builds the one table form the running CPU's kernel
// uses:
//
//   - AVX2 (amd64): per coefficient c, 32 bytes — the products of c with
//     the 16 low nibbles and with the 16 high nibbles. Per 32 input
//     bytes and coefficient the kernel does two VPSHUFB lookups and two
//     XORs, in 64-byte steps that keep the group's sums in registers
//     across a pass over every column, so each output byte is stored
//     once. A length that is not a multiple of 64 ends with a step that
//     overlaps the one before; shards under 64 bytes go through the same
//     tables a byte at a time.
//   - Pure Go (every other CPU): input columns in passes of six; for each
//     group and column one 256-entry table whose entry b packs the
//     products of byte b with that column's coefficients in the group's
//     rows, one product per byte of a uint32 (the group's first row in
//     the low byte). One table load advances four output rows at once.
//     1 KiB per column per group, columns rounded up to a multiple of
//     six.
//
// A Tables is immutable and safe for concurrent use.
type Tables struct {
	rows, cols int
	// nib is the AVX2 form: group g's tables start at byte
	// 32*groupRows*g*cols and run column by column, row by row within a
	// column. Nil when the pure-Go form is built.
	nib []byte
	// passes is the pure-Go form: passes[g*npass+p] holds the tables of
	// group g for columns 6p..6p+5; columns past the matrix have
	// all-zero tables.
	passes [][passCols][256]uint32
}

const (
	groupRows = 4 // output rows packed into one uint32
	// passCols is how many input columns one pass consumes. A pass keeps
	// six input pointers, four output pointers, the base of its six
	// contiguous tables, the index and the bound in registers — all
	// amd64 has; one more live value and the compiler spills the loop
	// index to the stack (measured 3000 vs 2500 MB/s on RS(6,4)).
	passCols = 6
	// chunkLen is how many byte positions go through every pass of a
	// group before the next chunk starts, so the partial sums a later
	// pass folds into are still in L1.
	chunkLen = 1024
	// nibLen is the size of one coefficient's AVX2 tables.
	nibLen = 32
	// kernelStep is how many byte positions one step of the AVX2 Apply
	// kernel covers: each coefficient's tables are loaded once per step
	// and serve two 32-byte halves.
	kernelStep = 64
)

// NewTables compiles the rows x cols matrix m (row-major) for the
// running CPU's kernel.
func NewTables(m []byte, rows, cols int) *Tables { return newTables(m, rows, cols, hasAVX2) }

// newTables compiles m into the AVX2 form when simd is set, else into
// the pure-Go form.
func newTables(m []byte, rows, cols int, simd bool) *Tables {
	if rows <= 0 || cols <= 0 || len(m) != rows*cols {
		panic(fmt.Sprintf("gf256: NewTables: %d coefficients for a %dx%d matrix", len(m), rows, cols))
	}
	t := &Tables{rows: rows, cols: cols}
	if simd {
		t.nib = make([]byte, rows*cols*nibLen)
		for g := 0; g*groupRows < rows; g++ {
			group := t.nib[g*groupRows*cols*nibLen:]
			n := min(groupRows, rows-g*groupRows)
			for c := 0; c < cols; c++ {
				for r := 0; r < n; r++ {
					copy(group[(c*n+r)*nibLen:], nibTable[m[(g*groupRows+r)*cols+c]][:])
				}
			}
		}
		return t
	}
	groups := (rows + groupRows - 1) / groupRows
	npass := (cols + passCols - 1) / passCols
	t.passes = make([][passCols][256]uint32, groups*npass)
	for r := 0; r < rows; r++ {
		shift := 8 * uint(r%groupRows)
		for c := 0; c < cols; c++ {
			tab := &t.passes[r/groupRows*npass+c/passCols][c%passCols]
			for b, p := range &mulTable[m[r*cols+c]] {
				tab[b] |= uint32(p) << shift
			}
		}
	}
	return t
}

// Apply computes out[r] = sum over c of m[r][c] * in[c] for every row of
// the matrix, reading the inputs once per group of four rows. All shards
// must have equal length; the outputs are overwritten (they need no
// zeroing) and must not overlap the inputs. Apply does not allocate.
func (t *Tables) Apply(out, in [][]byte) {
	if len(out) != t.rows || len(in) != t.cols {
		panic(fmt.Sprintf("gf256: Apply: %d outputs from %d inputs through a %dx%d matrix", len(out), len(in), t.rows, t.cols))
	}
	n := len(in[0])
	for _, s := range in {
		if len(s) != n {
			panic("gf256: Apply input length mismatch")
		}
	}
	for _, s := range out {
		if len(s) != n {
			panic("gf256: Apply output length mismatch")
		}
	}
	if t.nib != nil {
		t.applyNibbles(out, in, n)
		return
	}
	npass := (t.cols + passCols - 1) / passCols
	var spill [chunkLen]byte // takes the rows a short last group does not have
	for g := 0; g*groupRows < t.rows; g++ {
		rows := out[g*groupRows : min((g+1)*groupRows, t.rows)]
		for pos := 0; pos < n; pos += chunkLen {
			end := min(pos+chunkLen, n)
			o := [groupRows][]byte{spill[:], spill[:], spill[:], spill[:]}
			for r, s := range rows {
				o[r] = s[pos:end]
			}
			for p := 0; p < npass; p++ {
				// A column past the matrix has a zero table and may read
				// any input.
				var c [passCols][]byte
				for j := range c {
					c[j] = in[min(p*passCols+j, t.cols-1)][pos:end]
				}
				tabs := &t.passes[g*npass+p]
				switch {
				case len(rows) == 1 && p == 0:
					set1(o[0], tabs, c[0], c[1], c[2], c[3], c[4], c[5])
				case len(rows) == 1:
					xor1(o[0], tabs, c[0], c[1], c[2], c[3], c[4], c[5])
				case p == 0:
					set4(o[0], o[1], o[2], o[3], tabs, c[0], c[1], c[2], c[3], c[4], c[5])
				default:
					xor4(o[0], o[1], o[2], o[3], tabs, c[0], c[1], c[2], c[3], c[4], c[5])
				}
			}
		}
	}
}

// applyNibbles is Apply through the AVX2 tables. The kernel takes any
// length from one 64-byte step up; shorter shards go a byte at a time
// through the same tables.
func (t *Tables) applyNibbles(out, in [][]byte, n int) {
	for g := 0; g*groupRows < t.rows; g++ {
		rows := out[g*groupRows : min((g+1)*groupRows, t.rows)]
		tabs := t.nib[g*groupRows*t.cols*nibLen:][:len(rows)*t.cols*nibLen]
		if n >= kernelStep {
			applyAVX2(tabs, rows, in, n)
			continue
		}
		for i := 0; i < n; i++ {
			for r, o := range rows {
				var v byte
				for c, s := range in {
					tab := tabs[(c*len(rows)+r)*nibLen:]
					v ^= tab[s[i]&15] ^ tab[16+s[i]>>4]
				}
				o[i] = v
			}
		}
	}
}

// set4 writes the first pass's products into the group's four outputs.
func set4(o0, o1, o2, o3 []byte, t *[passCols][256]uint32, in0, in1, in2, in3, in4, in5 []byte) {
	n := len(o0)
	in0, in1, in2, in3, in4, in5 = in0[:n], in1[:n], in2[:n], in3[:n], in4[:n], in5[:n]
	o1, o2, o3 = o1[:n], o2[:n], o3[:n]
	for i := range o0 {
		v := t[0][in0[i]] ^ t[1][in1[i]] ^ t[2][in2[i]] ^ t[3][in3[i]] ^ t[4][in4[i]] ^ t[5][in5[i]]
		o0[i] = byte(v)
		o1[i] = byte(v >> 8)
		o2[i] = byte(v >> 16)
		o3[i] = byte(v >> 24)
	}
}

// xor4 folds a later pass's products into the partial sums in the outputs.
func xor4(o0, o1, o2, o3 []byte, t *[passCols][256]uint32, in0, in1, in2, in3, in4, in5 []byte) {
	n := len(o0)
	in0, in1, in2, in3, in4, in5 = in0[:n], in1[:n], in2[:n], in3[:n], in4[:n], in5[:n]
	o1, o2, o3 = o1[:n], o2[:n], o3[:n]
	for i := range o0 {
		v := t[0][in0[i]] ^ t[1][in1[i]] ^ t[2][in2[i]] ^ t[3][in3[i]] ^ t[4][in4[i]] ^ t[5][in5[i]]
		o0[i] ^= byte(v)
		o1[i] ^= byte(v >> 8)
		o2[i] ^= byte(v >> 16)
		o3[i] ^= byte(v >> 24)
	}
}

// set1 and xor1 are set4 and xor4 for a one-row group — the single-shard
// decode of a degraded read or a rebuild — without the three discarded
// stores.
func set1(o0 []byte, t *[passCols][256]uint32, in0, in1, in2, in3, in4, in5 []byte) {
	n := len(o0)
	in0, in1, in2, in3, in4, in5 = in0[:n], in1[:n], in2[:n], in3[:n], in4[:n], in5[:n]
	for i := range o0 {
		o0[i] = byte(t[0][in0[i]] ^ t[1][in1[i]] ^ t[2][in2[i]] ^ t[3][in3[i]] ^ t[4][in4[i]] ^ t[5][in5[i]])
	}
}

func xor1(o0 []byte, t *[passCols][256]uint32, in0, in1, in2, in3, in4, in5 []byte) {
	n := len(o0)
	in0, in1, in2, in3, in4, in5 = in0[:n], in1[:n], in2[:n], in3[:n], in4[:n], in5[:n]
	for i := range o0 {
		o0[i] ^= byte(t[0][in0[i]] ^ t[1][in1[i]] ^ t[2][in2[i]] ^ t[3][in3[i]] ^ t[4][in4[i]] ^ t[5][in5[i]])
	}
}
