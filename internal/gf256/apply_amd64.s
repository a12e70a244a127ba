#include "textflag.h"

// The AVX2 kernels multiply by a coefficient c with two 16-entry
// nibble tables (Plank, Greenan and Miller, FAST 2013): c·x =
// lo[x & 15] ^ hi[x >> 4], where lo[i] = c·i and hi[i] = c·(i << 4).
// Each table is 16 bytes, broadcast into both 128-bit lanes of a YMM
// register, so one VPSHUFB looks up 32 nibbles at once. mulAVX2 and
// mulXorAVX2 take multiples of 32 bytes, applyAVX2 any length from 64
// up; the Go callers take the rest a byte at a time.

// nibmask is 0x0f in every byte of a YMM register.
DATA nibmask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibmask<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibmask<>+16(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibmask<>+24(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibmask<>(SB), RODATA|NOPTR, $32

// SPLIT loads 32 bytes at (ptr)(AX*1) and leaves their low nibbles in
// Y4 and their high nibbles in Y5.
#define SPLIT(ptr) \
	VMOVDQU (ptr)(AX*1), Y4;      \
	VPSRLQ  $4, Y4, Y5;           \
	VPAND   nibmask<>(SB), Y4, Y4; \
	VPAND   nibmask<>(SB), Y5, Y5

// SPLIT64 loads 64 bytes at (DI)(AX*1) and leaves the nibbles of the
// first 32 in Y8 (low) and Y9 (high), of the second 32 in Y10 and Y11.
#define SPLIT64 \
	VMOVDQU (DI)(AX*1), Y8;         \
	VMOVDQU 32(DI)(AX*1), Y10;      \
	VPSRLQ  $4, Y8, Y9;             \
	VPSRLQ  $4, Y10, Y11;           \
	VPAND   nibmask<>(SB), Y8, Y8;   \
	VPAND   nibmask<>(SB), Y9, Y9;   \
	VPAND   nibmask<>(SB), Y10, Y10; \
	VPAND   nibmask<>(SB), Y11, Y11

// MULACC64 xors the products of SPLIT64's bytes with the coefficient
// whose tables sit at off(DX) and off+16(DX) into accA (first 32 bytes)
// and accB (second 32). One pair of table loads serves both halves.
#define MULACC64(off, offHi, accA, accB) \
	VBROADCASTI128 off(DX), Y12;   \
	VBROADCASTI128 offHi(DX), Y13; \
	VPSHUFB        Y8, Y12, Y14;   \
	VPSHUFB        Y9, Y13, Y15;   \
	VPXOR          Y14, Y15, Y14;  \
	VPXOR          Y14, accA, accA; \
	VPSHUFB        Y10, Y12, Y12;  \
	VPSHUFB        Y11, Y13, Y13;  \
	VPXOR          Y12, Y13, Y12;  \
	VPXOR          Y12, accB, accB

// STEP starts a 64-byte step at AX: it points R8 at in[0]'s header, DX
// at the first column's tables and CX at the column count.
#define STEP \
	MOVQ SI, R8; \
	MOVQ BX, DX; \
	MOVQ R9, CX

// NEXT advances AX to the next 64-byte step and jumps to loop, or to
// done past the end. A step that would run past n starts at n-64
// instead, overlapping the one before: it recomputes those outputs from
// the same inputs, which Apply's contract (no output overlaps an input)
// makes harmless.
#define NEXT(loop) \
	ADDQ $64, AX;  \
	CMPQ AX, R10;  \
	JAE  done;     \
	MOVQ R10, DI;  \
	SUBQ $64, DI;  \
	CMPQ AX, DI;   \
	JBE  loop;     \
	MOVQ DI, AX;   \
	JMP  loop

// func applyAVX2(tab []byte, out, in [][]byte, n int)
//
// For i < n it sets out[r][i] to the sum over the columns c of in[c][i]
// times the coefficient of row r and column c, with 1 <= len(out) <= 4
// and n >= 64. tab holds the coefficients' tables column by column, row
// by row within a column, 32 bytes (lo then hi) each. Each step covers
// 64 bytes: the rows' sums stay in Y0-Y7 across the pass over the
// columns, so every output byte is stored once, every input byte loaded
// once, and each coefficient's tables loaded once per 64 bytes.
TEXT ·applyAVX2(SB), NOSPLIT, $0-80
	MOVQ tab_base+0(FP), BX
	MOVQ out_base+24(FP), DI
	MOVQ out_len+32(FP), R8
	MOVQ in_base+48(FP), SI
	MOVQ in_len+56(FP), R9
	MOVQ n+72(FP), R10
	XORQ AX, AX
	MOVQ 0(DI), R11
	CMPQ R8, $2
	JB   rows1
	MOVQ 24(DI), R12
	JE   rows2
	MOVQ 48(DI), R13
	CMPQ R8, $4
	JB   rows3
	MOVQ 72(DI), R14

rows4:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	STEP

cols4:
	MOVQ (R8), DI
	SPLIT64
	MULACC64(0, 16, Y0, Y1)
	MULACC64(32, 48, Y2, Y3)
	MULACC64(64, 80, Y4, Y5)
	MULACC64(96, 112, Y6, Y7)
	ADDQ $24, R8
	ADDQ $128, DX
	DECQ CX
	JNZ  cols4
	VMOVDQU Y0, (R11)(AX*1)
	VMOVDQU Y1, 32(R11)(AX*1)
	VMOVDQU Y2, (R12)(AX*1)
	VMOVDQU Y3, 32(R12)(AX*1)
	VMOVDQU Y4, (R13)(AX*1)
	VMOVDQU Y5, 32(R13)(AX*1)
	VMOVDQU Y6, (R14)(AX*1)
	VMOVDQU Y7, 32(R14)(AX*1)
	NEXT(rows4)

rows3:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	STEP

cols3:
	MOVQ (R8), DI
	SPLIT64
	MULACC64(0, 16, Y0, Y1)
	MULACC64(32, 48, Y2, Y3)
	MULACC64(64, 80, Y4, Y5)
	ADDQ $24, R8
	ADDQ $96, DX
	DECQ CX
	JNZ  cols3
	VMOVDQU Y0, (R11)(AX*1)
	VMOVDQU Y1, 32(R11)(AX*1)
	VMOVDQU Y2, (R12)(AX*1)
	VMOVDQU Y3, 32(R12)(AX*1)
	VMOVDQU Y4, (R13)(AX*1)
	VMOVDQU Y5, 32(R13)(AX*1)
	NEXT(rows3)

rows2:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	STEP

cols2:
	MOVQ (R8), DI
	SPLIT64
	MULACC64(0, 16, Y0, Y1)
	MULACC64(32, 48, Y2, Y3)
	ADDQ $24, R8
	ADDQ $64, DX
	DECQ CX
	JNZ  cols2
	VMOVDQU Y0, (R11)(AX*1)
	VMOVDQU Y1, 32(R11)(AX*1)
	VMOVDQU Y2, (R12)(AX*1)
	VMOVDQU Y3, 32(R12)(AX*1)
	NEXT(rows2)

rows1:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	STEP

cols1:
	MOVQ (R8), DI
	SPLIT64
	MULACC64(0, 16, Y0, Y1)
	ADDQ $24, R8
	ADDQ $32, DX
	DECQ CX
	JNZ  cols1
	VMOVDQU Y0, (R11)(AX*1)
	VMOVDQU Y1, 32(R11)(AX*1)
	NEXT(rows1)

done:
	VZEROUPPER
	RET

// func mulAVX2(tab *[32]byte, dst, src []byte)
//
// Sets dst[i] = c·src[i] for i < len(src), a multiple of 32; dst may
// be src.
TEXT ·mulAVX2(SB), NOSPLIT, $0-56
	MOVQ tab+0(FP), DX
	MOVQ dst_base+8(FP), DI
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), R10
	VBROADCASTI128 0(DX), Y8
	VBROADCASTI128 16(DX), Y9
	XORQ AX, AX

mulLoop:
	CMPQ    AX, R10
	JAE     mulDone
	SPLIT(SI)
	VPSHUFB Y4, Y8, Y6
	VPSHUFB Y5, Y9, Y7
	VPXOR   Y6, Y7, Y6
	VMOVDQU Y6, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     mulLoop

mulDone:
	VZEROUPPER
	RET

// func mulXorAVX2(tab *[32]byte, dst, src []byte)
//
// Sets dst[i] ^= c·src[i] for i < len(src), a multiple of 32.
TEXT ·mulXorAVX2(SB), NOSPLIT, $0-56
	MOVQ tab+0(FP), DX
	MOVQ dst_base+8(FP), DI
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), R10
	VBROADCASTI128 0(DX), Y8
	VBROADCASTI128 16(DX), Y9
	XORQ AX, AX

mulXorLoop:
	CMPQ    AX, R10
	JAE     mulXorDone
	SPLIT(SI)
	VPSHUFB Y4, Y8, Y6
	VPSHUFB Y5, Y9, Y7
	VPXOR   Y6, Y7, Y6
	VPXOR   (DI)(AX*1), Y6, Y6
	VMOVDQU Y6, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     mulXorLoop

mulXorDone:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
