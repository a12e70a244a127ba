package gf256

// hasAVX2 selects the nibble-table kernels of apply_amd64.s: the CPU
// has AVX2 and the OS saves the YMM registers across context switches.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xgetbv()&xmmYmmState != xmmYmmState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() (eax uint32)

//go:noescape
func applyAVX2(tab []byte, out, in [][]byte, n int)

//go:noescape
func mulAVX2(tab *[32]byte, dst, src []byte)

//go:noescape
func mulXorAVX2(tab *[32]byte, dst, src []byte)
