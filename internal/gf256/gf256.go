// Package gf256 implements arithmetic over the Galois field GF(2^8).
//
// The field is constructed modulo the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same polynomial used by most
// Reed-Solomon storage codes. Addition and subtraction are XOR;
// multiplication and division are performed with precomputed log/exp
// tables. Single-coefficient slice kernels (MulSlice, MulAddSlice,
// XorSlice) serve the incremental update paths; whole-matrix products —
// Reed-Solomon encode and decode — go through Tables.Apply.
//
// The bulk kernels (Apply, MulSlice, MulAddSlice) come in two forms,
// chosen once at start-up from CPUID. On amd64 with AVX2 (and YMM state
// enabled by the OS) they split each byte into two 4-bit nibbles and
// look both up in 16-entry product tables with VPSHUFB, 32 bytes per
// instruction (apply_amd64.s); what is left under one step (32 bytes
// for the slice kernels, shards under 64 bytes for Apply) goes a byte at
// a time. Everywhere else they are pure Go with one table lookup per
// byte; that form is also the reference the tests hold the AVX2 one to.
package gf256

import "crypto/subtle"

// polynomial is the primitive polynomial generating the field.
const polynomial = 0x11d

var (
	expTable [512]byte // expTable[i] = alpha^i, doubled to avoid mod 255 in Mul
	logTable [256]byte // logTable[x] = i such that alpha^i = x (x != 0)
	// mulTable[a][b] = a*b. 64KiB; built once at init and shared by the
	// slice kernels, which profile faster with a flat lookup than with
	// log/exp on short operands.
	mulTable [256][256]byte
	invTable [256]byte
	// nibTable[c] is the AVX2 kernels' form of multiplication by c: its
	// first 16 bytes are c·i, its last 16 c·(i<<4), for i < 16.
	nibTable [256][32]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= polynomial
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
	for a := 1; a < 256; a++ {
		la := int(logTable[a])
		for b := 1; b < 256; b++ {
			mulTable[a][b] = expTable[la+int(logTable[b])]
		}
		invTable[a] = expTable[255-la]
	}
	for c := range nibTable {
		for i := 0; i < 16; i++ {
			nibTable[c][i] = mulTable[c][i]
			nibTable[c][16+i] = mulTable[c][i<<4]
		}
	}
}

// Add returns a+b in GF(2^8). Addition and subtraction coincide.
func Add(a, b byte) byte { return a ^ b }

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte { return mulTable[a][b] }

// Div returns a/b in GF(2^8). It panics if b == 0.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}

// Inv returns the multiplicative inverse of a. It panics if a == 0.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return invTable[a]
}

// Exp returns alpha^n for the field generator alpha = 0x02.
func Exp(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return expTable[n]
}

// Pow returns a raised to the power n.
func Pow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return Exp(int(logTable[a]) * n % 255)
}

// MulSlice sets dst[i] = c * src[i]. dst and src must have equal length;
// they may alias. A zero coefficient clears dst.
func MulSlice(c byte, dst, src []byte) { mulSlice(c, dst, src, hasAVX2) }

// mulSlice is MulSlice through the AVX2 kernel when simd is set.
func mulSlice(c byte, dst, src []byte, simd bool) {
	if len(dst) != len(src) {
		panic("gf256: MulSlice length mismatch")
	}
	if c == 0 {
		clear(dst)
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	if simd {
		n := len(src) &^ 31
		mulAVX2(&nibTable[c], dst[:n], src[:n])
		dst, src = dst[n:], src[n:]
	}
	mt := &mulTable[c]
	for i, s := range src {
		dst[i] = mt[s]
	}
}

// MulAddSlice sets dst[i] ^= c * src[i] — the fundamental operation of
// both Reed-Solomon encoding and incremental parity-delta application
// (Equation 2 of the TSUE paper). dst and src must have equal length.
func MulAddSlice(c byte, dst, src []byte) { mulAddSlice(c, dst, src, hasAVX2) }

// mulAddSlice is MulAddSlice through the AVX2 kernel when simd is set.
func mulAddSlice(c byte, dst, src []byte, simd bool) {
	if len(dst) != len(src) {
		panic("gf256: MulAddSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		XorSlice(dst, src)
		return
	}
	if simd {
		n := len(src) &^ 31
		mulXorAVX2(&nibTable[c], dst[:n], src[:n])
		dst, src = dst[n:], src[n:]
	}
	mt := &mulTable[c]
	for i, s := range src {
		dst[i] ^= mt[s]
	}
}

// XorSlice sets dst[i] ^= src[i]. The slices must have equal length.
func XorSlice(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: XorSlice length mismatch")
	}
	// gc does not vectorize a byte loop (2 GB/s at 64 KiB); XORBytes is
	// the standard library's vector XOR (tens of GB/s).
	subtle.XORBytes(dst, dst, src)
}
