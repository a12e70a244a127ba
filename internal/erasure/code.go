package erasure

import (
	"bytes"
	"crypto/subtle"
	"errors"
	"fmt"
	"slices"

	"repro/internal/gf256"
)

// MatrixKind selects the construction of the encoding matrix.
type MatrixKind int

const (
	// Vandermonde derives parity rows from a systematized Vandermonde
	// matrix (the construction sketched in Equation 1 of the paper).
	Vandermonde MatrixKind = iota
	// Cauchy uses a Cauchy matrix for the parity rows.
	Cauchy
)

func (k MatrixKind) String() string {
	switch k {
	case Vandermonde:
		return "vandermonde"
	case Cauchy:
		return "cauchy"
	default:
		return fmt.Sprintf("MatrixKind(%d)", int(k))
	}
}

// Code is a systematic RS(K, M) erasure code. It is immutable after
// construction and safe for concurrent use.
type Code struct {
	K, M int
	Kind MatrixKind
	// enc is the (K+M) x K encoding matrix; the top K rows are identity.
	enc Matrix
	// parity is the M parity rows of enc compiled for the bulk kernel,
	// once (about 1 KiB per data column and four parity rows).
	parity *gf256.Tables
}

// ErrTooFewShards is returned when fewer than K shards survive.
var ErrTooFewShards = errors.New("erasure: fewer than K shards available")

// New constructs an RS(k, m) code. k >= 1, m >= 1, k+m <= 256.
func New(k, m int, kind MatrixKind) (*Code, error) {
	if k < 1 || m < 1 {
		return nil, fmt.Errorf("erasure: invalid parameters RS(%d,%d)", k, m)
	}
	if k+m > 256 {
		return nil, fmt.Errorf("erasure: RS(%d,%d) exceeds GF(2^8) capacity", k, m)
	}
	var (
		enc Matrix
		err error
	)
	switch kind {
	case Vandermonde:
		enc, err = vandermonde(k, m)
	case Cauchy:
		enc, err = cauchy(k, m)
	default:
		return nil, fmt.Errorf("erasure: unknown matrix kind %v", kind)
	}
	if err != nil {
		return nil, err
	}
	return &Code{K: k, M: m, Kind: kind, enc: enc, parity: gf256.NewTables(enc.Data[k*k:], m, k)}, nil
}

// MustNew is New that panics on error, for tests and static configuration.
func MustNew(k, m int, kind MatrixKind) *Code {
	c, err := New(k, m, kind)
	if err != nil {
		panic(err)
	}
	return c
}

// Coeff returns the encoding coefficient relating data block `data` to
// parity block `parity` — the value written ∂(parity+1)(data+1) in the
// paper's equations. Indices are zero-based.
func (c *Code) Coeff(parity, data int) byte {
	return c.enc.At(c.K+parity, data)
}

// Encode computes the M parity shards for the given K data shards in one
// pass over the data per four parity shards. All shards must have
// identical length. The returned parity shards are freshly allocated.
func (c *Code) Encode(data [][]byte) ([][]byte, error) {
	if err := c.checkDataShards(data); err != nil {
		return nil, err
	}
	parity := make([][]byte, c.M)
	for p := range parity {
		parity[p] = make([]byte, len(data[0]))
	}
	c.EncodeTo(parity, data)
	return parity, nil
}

// EncodeTo writes the M parity shards of the K data shards into parity,
// overwriting it, in one pass per four parity shards and without
// allocating. Encoding is linear, so data deltas encode to the parity
// deltas of Eq. 5. It panics unless every shard has the same length.
func (c *Code) EncodeTo(parity, data [][]byte) { c.parity.Apply(parity, data) }

// verifyChunk is how many bytes of each shard Verify encodes at a time,
// so its scratch is M chunks however long the shards are.
const verifyChunk = 4 << 10

// Verify reports whether parity is consistent with data. It re-encodes
// the data a chunk at a time into a bounded scratch and compares as it
// goes, stopping at the first mismatch; its allocations do not grow
// with the shard length.
func (c *Code) Verify(data, parity [][]byte) (bool, error) {
	if err := c.checkDataShards(data); err != nil {
		return false, err
	}
	if len(parity) != c.M {
		return false, fmt.Errorf("erasure: got %d parity shards, want %d", len(parity), c.M)
	}
	n := len(data[0])
	for p, s := range parity {
		if len(s) != n {
			return false, fmt.Errorf("erasure: parity shard %d has length %d, want %d", p, len(s), n)
		}
	}
	chunk := min(n, verifyChunk)
	scratch := make([]byte, c.M*chunk)
	want, in := make([][]byte, c.M), make([][]byte, c.K)
	for pos := 0; pos < n; pos += chunk {
		end := min(pos+chunk, n)
		for j, d := range data {
			in[j] = d[pos:end]
		}
		for p := range want {
			want[p] = scratch[p*chunk:][:end-pos]
		}
		c.EncodeTo(want, in)
		for p, w := range want {
			if !bytes.Equal(w, parity[p][pos:end]) {
				return false, nil
			}
		}
	}
	return true, nil
}

// Reconstruct rebuilds missing shards in place. shards must have length
// K+M, ordered data shards then parity shards; missing shards are nil.
// At least K shards must be present. With no want it fills every nil
// slot; otherwise it rebuilds only the listed shard indices (those that
// are missing) and leaves every other nil slot nil — a degraded read or
// a single-block rebuild pays for the one shard it uses. Rebuilt shards
// are freshly allocated; ReconstructTo decodes one shard into memory
// the caller already has.
func (c *Code) Reconstruct(shards [][]byte, want ...int) error {
	n := c.K + c.M
	size, err := c.checkShards(shards)
	if err != nil {
		return err
	}
	missing := make([]int, 0, c.M)
	if len(want) == 0 {
		for i, s := range shards {
			if s == nil {
				missing = append(missing, i)
			}
		}
	}
	for _, idx := range want {
		if idx < 0 || idx >= n {
			return fmt.Errorf("erasure: wanted shard %d outside [0,%d)", idx, n)
		}
		if shards[idx] == nil && !slices.Contains(missing, idx) {
			missing = append(missing, idx)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	rebuilt := make([][]byte, len(missing))
	for i := range rebuilt {
		rebuilt[i] = make([]byte, size)
	}
	if err := c.decode(rebuilt, shards, missing); err != nil {
		return err
	}
	for i, idx := range missing {
		shards[idx] = rebuilt[i]
	}
	return nil
}

// ReconstructTo decodes shard lost from the shards present into dst,
// which must have the present shards' length, and leaves shards as they
// are. shards is laid out as for Reconstruct, with at least K present.
func (c *Code) ReconstructTo(dst []byte, shards [][]byte, lost int) error {
	size, err := c.checkShards(shards)
	if err != nil {
		return err
	}
	if lost < 0 || lost >= len(shards) {
		return fmt.Errorf("erasure: lost shard %d outside [0,%d)", lost, len(shards))
	}
	if size >= 0 && len(dst) != size {
		return fmt.Errorf("erasure: destination has length %d, want %d", len(dst), size)
	}
	return c.decode([][]byte{dst}, shards, []int{lost})
}

// checkShards validates a decode's input — K+M slots, every present
// shard of one length — and returns that length (-1 with none present).
func (c *Code) checkShards(shards [][]byte) (int, error) {
	if len(shards) != c.K+c.M {
		return 0, fmt.Errorf("erasure: got %d shards, want %d", len(shards), c.K+c.M)
	}
	size := -1
	for i, s := range shards {
		if s == nil {
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return 0, fmt.Errorf("erasure: shard %d has length %d, want %d", i, len(s), size)
		}
	}
	return size, nil
}

// decode writes the shards at indices missing into out, one per index.
// Every wanted shard is a linear combination of the first K survivors:
// its coefficients are its encoding row times the inverted survivor
// matrix (for a data shard, whose encoding row is a unit vector, that is
// the inverse's own row). The rows form one (|missing| x K) matrix that
// is applied to the survivors once.
func (c *Code) decode(out, shards [][]byte, missing []int) error {
	rows := make([]int, 0, c.K)
	survivors := make([][]byte, 0, c.K)
	for i, s := range shards {
		if s != nil && len(rows) < c.K {
			rows = append(rows, i)
			survivors = append(survivors, s)
		}
	}
	if len(rows) < c.K {
		return fmt.Errorf("%w: have %d, need %d", ErrTooFewShards, len(rows), c.K)
	}
	inv, err := c.enc.SubMatrix(rows).Invert()
	if err != nil {
		return fmt.Errorf("erasure: reconstruction matrix singular: %w", err)
	}
	dec := c.enc.SubMatrix(missing).Mul(inv)
	gf256.NewTables(dec.Data, dec.Rows, dec.Cols).Apply(out, survivors)
	return nil
}

func (c *Code) checkDataShards(data [][]byte) error {
	if len(data) != c.K {
		return fmt.Errorf("erasure: got %d data shards, want %d", len(data), c.K)
	}
	size := len(data[0])
	for i, s := range data {
		if len(s) != size {
			return fmt.Errorf("erasure: data shard %d has length %d, want %d", i, len(s), size)
		}
	}
	return nil
}

// DataDelta computes newData XOR oldData into a fresh slice. In GF(2^8)
// subtraction is XOR, so this is the (D^n - D^{n-1}) term of Equation 2.
func DataDelta(oldData, newData []byte) []byte {
	if len(oldData) != len(newData) {
		panic("erasure: DataDelta length mismatch")
	}
	d := make([]byte, len(newData))
	subtle.XORBytes(d, newData, oldData)
	return d
}

// ParityDelta computes the parity delta ∂ * dataDelta for parity block p
// and data block d (Equation 2). The result is freshly allocated.
func (c *Code) ParityDelta(p, d int, dataDelta []byte) []byte {
	out := make([]byte, len(dataDelta))
	gf256.MulSlice(c.Coeff(p, d), out, dataDelta)
	return out
}
