package gf256

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddIsXor(t *testing.T) {
	if Add(0x53, 0xCA) != 0x53^0xCA {
		t.Fatal("Add must be XOR")
	}
	if Add(7, 7) != 0 {
		t.Fatal("x+x must be 0")
	}
}

func TestMulIdentity(t *testing.T) {
	for a := 0; a < 256; a++ {
		if got := Mul(byte(a), 1); got != byte(a) {
			t.Fatalf("a*1 = %d, want %d", got, a)
		}
		if got := Mul(byte(a), 0); got != 0 {
			t.Fatalf("a*0 = %d, want 0", got)
		}
	}
}

func TestMulKnownValues(t *testing.T) {
	// Hand-computed products in GF(2^8)/0x11d.
	cases := []struct{ a, b, want byte }{
		{2, 2, 4},
		{0x80, 2, 0x1d}, // wraps through the polynomial
		{0x53, 2, 0xa6},
		{3, 7, 9},
	}
	for _, c := range cases {
		if got := Mul(c.a, c.b); got != c.want {
			t.Errorf("Mul(%#x,%#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulAssociative(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributive(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivInvertsMul(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Div(Mul(a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInv(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := Mul(byte(a), Inv(byte(a))); got != 1 {
			t.Fatalf("a * a^-1 = %d for a=%d, want 1", got, a)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) must panic")
		}
	}()
	Inv(0)
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div(x,0) must panic")
		}
	}()
	Div(5, 0)
}

func TestExpPeriodic(t *testing.T) {
	for n := 0; n < 10; n++ {
		if Exp(n) != Exp(n+255) {
			t.Fatalf("Exp not periodic at %d", n)
		}
	}
	if Exp(-1) != Exp(254) {
		t.Fatal("Exp must handle negative exponents")
	}
}

func TestPow(t *testing.T) {
	for a := 0; a < 256; a++ {
		want := byte(1)
		for n := 0; n < 8; n++ {
			if got := Pow(byte(a), n); got != want {
				t.Fatalf("Pow(%d,%d) = %d, want %d", a, n, got, want)
			}
			want = Mul(want, byte(a))
		}
	}
}

// testCoeffs are the coefficients the slice kernels are checked with:
// the two shortcuts (0 clears or skips, 1 copies or XORs) and products
// that wrap through the polynomial.
var testCoeffs = []byte{0, 1, 2, 3, 0x57, 0x80, 0xff}

func TestMulSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, simd := range kernels() {
		for _, n := range testLengths {
			src, dst := oddShards(rng, 1, n)[0], oddShards(rng, 1, n)[0]
			for _, c := range testCoeffs {
				want := make([]byte, n)
				for i := range src {
					want[i] = Mul(c, src[i])
				}
				mulSlice(c, dst, src, simd)
				if !bytes.Equal(dst, want) {
					t.Fatalf("%s kernel: MulSlice(%#x) of %d bytes disagrees with the scalar loop", kernelName(simd), c, n)
				}
				// In place, as logpool's scaled inserts call it.
				inPlace := append([]byte(nil), src...)
				mulSlice(c, inPlace, inPlace, simd)
				if !bytes.Equal(inPlace, want) {
					t.Fatalf("%s kernel: in-place MulSlice(%#x) of %d bytes disagrees with the scalar loop", kernelName(simd), c, n)
				}
			}
		}
	}
}

func TestMulAddSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, simd := range kernels() {
		for _, n := range testLengths {
			src, dst := oddShards(rng, 1, n)[0], oddShards(rng, 1, n)[0]
			for _, c := range testCoeffs {
				want := append([]byte(nil), dst...)
				for i := range src {
					want[i] ^= Mul(c, src[i])
				}
				mulAddSlice(c, dst, src, simd)
				if !bytes.Equal(dst, want) {
					t.Fatalf("%s kernel: MulAddSlice(%#x) of %d bytes disagrees with the scalar loop", kernelName(simd), c, n)
				}
			}
		}
	}
}

func TestMulAddSliceSelfInverse(t *testing.T) {
	// Applying the same delta twice must restore dst (characteristic 2).
	f := func(c byte, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		dst := make([]byte, len(data))
		orig := make([]byte, len(data))
		copy(dst, data)
		copy(orig, data)
		src := make([]byte, len(data))
		for i := range src {
			src[i] = byte(i*7 + 13)
		}
		MulAddSlice(c, dst, src)
		MulAddSlice(c, dst, src)
		return bytes.Equal(dst, orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXorSlice(t *testing.T) {
	// Against the byte loop, at lengths around the vector widths and at
	// unaligned offsets.
	rng := rand.New(rand.NewSource(6))
	buf := make([]byte, 2*4200)
	for _, n := range []int{0, 1, 3, 7, 15, 16, 17, 63, 64, 65, 1023, 4096, 4099} {
		for off := 0; off < 3; off++ {
			rng.Read(buf)
			dst, src := buf[off:off+n], buf[4200+2*off:4200+2*off+n]
			want := make([]byte, n)
			for i := range want {
				want[i] = dst[i] ^ src[i]
			}
			XorSlice(dst, src)
			if !bytes.Equal(dst, want) {
				t.Fatalf("XorSlice wrong at length %d, offset %d", n, off)
			}
		}
	}
}

func TestSliceLengthMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"MulSlice":    func() { MulSlice(2, make([]byte, 3), make([]byte, 4)) },
		"MulAddSlice": func() { MulAddSlice(2, make([]byte, 3), make([]byte, 4)) },
		"XorSlice":    func() { XorSlice(make([]byte, 3), make([]byte, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkMulAddSlice64K(b *testing.B) {
	src := make([]byte, 64<<10)
	dst := make([]byte, 64<<10)
	rand.New(rand.NewSource(2)).Read(src)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlice(0x9a, dst, src)
	}
}

func BenchmarkXorSlice4K(b *testing.B)  { benchXorSlice(b, 4<<10) }
func BenchmarkXorSlice64K(b *testing.B) { benchXorSlice(b, 64<<10) }
func BenchmarkXorSlice1M(b *testing.B)  { benchXorSlice(b, 1<<20) }

func benchXorSlice(b *testing.B, size int) {
	src := make([]byte, size)
	dst := make([]byte, size)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		XorSlice(dst, src)
	}
}
