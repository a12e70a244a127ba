//go:build !amd64

package gf256

// hasAVX2 is false off amd64: the pure-Go kernels are the only ones.
const hasAVX2 = false

func applyAVX2(tab []byte, out, in [][]byte, n int) { panic("gf256: no AVX2 kernel") }

func mulAVX2(tab *[32]byte, dst, src []byte) { panic("gf256: no AVX2 kernel") }

func mulXorAVX2(tab *[32]byte, dst, src []byte) { panic("gf256: no AVX2 kernel") }
