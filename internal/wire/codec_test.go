package wire

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// allKinds enumerates every defined message kind, KInvalid included —
// the codec must carry any Kind byte faithfully.
var allKinds = []Kind{
	KInvalid, KWriteBlock, KUpdate, KRead, KMDSCreate, KMDSLookup,
	KMDSHeartbeat, KMDSStat, KParityDelta, KParityLogAdd, KDeltaLogAdd,
	KDataLogReplica, KParixLogAdd, KCordCollect, KBlockFetch, KBlockStore,
	KDrainLogs, KReplicaFetch, KPing, KEpochUpdate, KRepairHint,
	KRepairStatus, KResolveAddr,
}

// fullMsg populates every field of the Msg union with distinctive,
// non-zero values.
func fullMsg(k Kind) *Msg {
	return &Msg{
		Kind:  k,
		From:  -7, // NodeID is signed; the codec must round-trip negatives
		Block: BlockID{Ino: 0xDEADBEEFCAFE, Stripe: 0xA1B2C3D4, Idx: 9},
		Off:   4096,
		Size:  0xFFFF_FFFF,
		Data:  []byte("primary payload"),
		Data2: []byte("secondary payload (parix old data)"),
		Idx:   3,
		K:     4,
		M:     2,
		Loc:   StripeLoc{Nodes: []NodeID{5, 1, -2, 9, 12, 7}, Epoch: 0x1122334455667788},
		Seq:   1<<63 - 1,
		Name:  "/files/trace-0042.dat",
		Flag:  FetchReadThrough | StoreUnlessOverwritten,
		Class: sim.ClassRebuild,
		V:     -12345678901,
	}
}

// TestMsgRoundTripAllKinds: every Kind with every union field populated
// encodes -> decodes identically, and WireSize is exactly the encoded
// length.
func TestMsgRoundTripAllKinds(t *testing.T) {
	for _, k := range allKinds {
		in := fullMsg(k)
		enc := in.AppendTo(nil)
		if got, want := int64(len(enc)), in.WireSize(); got != want {
			t.Fatalf("%v: encoded %d bytes, WireSize says %d", k, got, want)
		}
		var out Msg
		if err := out.Decode(enc); err != nil {
			t.Fatalf("%v: decode: %v", k, err)
		}
		if !reflect.DeepEqual(in, &out) {
			t.Fatalf("%v: round trip mismatch:\n in: %+v\nout: %+v", k, in, &out)
		}
	}
}

// TestMsgRoundTripSparse: zero-valued and partially populated messages
// round-trip too (nil payloads must come back nil, not empty).
func TestMsgRoundTripSparse(t *testing.T) {
	cases := []*Msg{
		{},
		{Kind: KPing},
		{Kind: KMDSCreate, Name: "f"},
		{Kind: KWriteBlock, Data: []byte{0}},
		{Kind: KEpochUpdate, Loc: StripeLoc{Epoch: 3}},
		{Kind: KUpdate, Data: make([]byte, 1<<16), Data2: []byte{}},
	}
	for i, in := range cases {
		if len(in.Data2) == 0 {
			in.Data2 = nil // the codec does not distinguish empty from nil
		}
		if len(in.Data) == 0 {
			in.Data = nil
		}
		enc := in.AppendTo(nil)
		if got, want := int64(len(enc)), in.WireSize(); got != want {
			t.Fatalf("case %d: encoded %d bytes, WireSize says %d", i, got, want)
		}
		var out Msg
		if err := out.Decode(enc); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(in, &out) {
			t.Fatalf("case %d: round trip mismatch:\n in: %+v\nout: %+v", i, in, &out)
		}
	}
}

func fullResp() *Resp {
	return &Resp{
		Err:  "remote: something structured happened",
		Code: StatusStaleEpoch,
		Data: []byte("reply payload"),
		Ino:  0x0102030405060708,
		Loc:  StripeLoc{Nodes: []NodeID{1, 2, 3}, Epoch: 77},
		Val:  -42,
		Cost: 1234567890,
	}
}

// TestRespRoundTrip mirrors the Msg equivalence test for replies.
func TestRespRoundTrip(t *testing.T) {
	cases := []*Resp{fullResp(), {}, {Err: "x"}, {Data: []byte("d")}, {Loc: StripeLoc{Epoch: 9}}}
	for i, in := range cases {
		enc := in.AppendTo(nil)
		if got, want := int64(len(enc)), in.WireSize(); got != want {
			t.Fatalf("case %d: encoded %d bytes, WireSize says %d", i, got, want)
		}
		var out Resp
		if err := out.Decode(enc); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(in, &out) {
			t.Fatalf("case %d: round trip mismatch:\n in: %+v\nout: %+v", i, in, &out)
		}
	}
}

// TestAppendToExtends: AppendTo appends after existing bytes rather than
// clobbering them, so framing code can prepend headers in one buffer.
func TestAppendToExtends(t *testing.T) {
	prefix := []byte("header")
	enc := fullMsg(KUpdate).AppendTo(append([]byte(nil), prefix...))
	if !bytes.HasPrefix(enc, prefix) {
		t.Fatal("AppendTo must preserve existing bytes")
	}
	var out Msg
	if err := out.Decode(enc[len(prefix):]); err != nil {
		t.Fatalf("decode after prefix: %v", err)
	}
}

// TestDecodeRejectsBadFormat: any leading byte but FormatVersion — a
// stream from the retired gob framing, a future format — fails with
// ErrBadFormat.
func TestDecodeRejectsBadFormat(t *testing.T) {
	enc := fullMsg(KPing).AppendTo(nil)
	enc[0] = FormatVersion + 1
	var m Msg
	if err := m.Decode(enc); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("want ErrBadFormat, got %v", err)
	}
	// A frame-sized stream opening with the bytes the retired gob
	// framing sent for a Msg: a length-prefixed type descriptor, never
	// the format byte.
	gobStream := append([]byte("\xff\x98\x7f\x03\x01\x01\x03Msg\x01\xff\x80\x00\x01\x10"), make([]byte, len(enc))...)
	if err := m.Decode(gobStream); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("gob stream: want ErrBadFormat, got %v", err)
	}
	r := fullResp().AppendTo(nil)
	r[0] = 0
	var resp Resp
	if err := resp.Decode(r); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("resp: want ErrBadFormat, got %v", err)
	}
}

// TestDecodeRejectsMalformed: truncations, inflated section lengths, and
// trailing garbage all error out.
func TestDecodeRejectsMalformed(t *testing.T) {
	enc := fullMsg(KUpdate).AppendTo(nil)
	for _, n := range []int{0, 1, msgFixedSize - 1, len(enc) - 1} {
		var m Msg
		if err := m.Decode(enc[:n]); err == nil {
			t.Fatalf("truncation to %d bytes must fail", n)
		}
	}
	var m Msg
	if err := m.Decode(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing byte must fail")
	}
	// Inflate the declared Data length beyond the frame.
	bad := append([]byte(nil), enc...)
	bad[56], bad[57], bad[58], bad[59] = 0xFF, 0xFF, 0xFF, 0xFF
	if err := m.Decode(bad); err == nil {
		t.Fatal("inflated data length must fail")
	}
	rEnc := fullResp().AppendTo(nil)
	for _, n := range []int{0, RespFixedSize - 1, len(rEnc) - 1} {
		var r Resp
		if err := r.Decode(rEnc[:n]); err == nil {
			t.Fatalf("resp truncation to %d bytes must fail", n)
		}
	}
}

// TestEncodeAddrMapOversized: a pathological address errors out instead
// of silently vanishing from the map.
func TestEncodeAddrMapOversized(t *testing.T) {
	if _, err := EncodeAddrMap(map[NodeID]string{1: "ok:1", 2: strings.Repeat("x", 0x10000)}); err == nil {
		t.Fatal("oversized address must be an error")
	}
	enc, err := EncodeAddrMap(map[NodeID]string{1: strings.Repeat("a", 0xFFFF)})
	if err != nil {
		t.Fatalf("address at the bound must encode: %v", err)
	}
	out, err := DecodeAddrMap(enc)
	if err != nil || len(out[1]) != 0xFFFF {
		t.Fatalf("bound address round trip: %v, len %d", err, len(out[1]))
	}
}

// FuzzMsgDecode: a malformed message frame must error, never panic, and
// never allocate past the frame it was given.
func FuzzMsgDecode(f *testing.F) {
	f.Add(fullMsg(KUpdate).AppendTo(nil))
	f.Add(fullMsg(KWriteBlock).AppendTo(nil))
	f.Add((&Msg{}).AppendTo(nil))
	f.Add([]byte{})
	f.Add([]byte{FormatVersion})
	f.Add(make([]byte, msgFixedSize))
	trunc := fullMsg(KRead).AppendTo(nil)
	f.Add(trunc[:len(trunc)-3])
	inflated := (&Msg{Kind: KPing}).AppendTo(nil)
	inflated[56] = 0xFF // declared Data length far beyond the frame
	f.Add(inflated)
	f.Fuzz(func(t *testing.T, b []byte) {
		var m Msg
		if err := m.Decode(b); err != nil {
			return
		}
		// A frame that decodes must re-encode to the identical bytes —
		// the layout has exactly one encoding per message.
		if out := m.AppendTo(nil); !bytes.Equal(out, b) {
			t.Fatalf("decode/encode not idempotent:\n in: %x\nout: %x", b, out)
		}
	})
}

// FuzzRespDecode mirrors FuzzMsgDecode for replies.
func FuzzRespDecode(f *testing.F) {
	f.Add(fullResp().AppendTo(nil))
	f.Add((&Resp{}).AppendTo(nil))
	f.Add([]byte{})
	f.Add([]byte{FormatVersion})
	f.Add(make([]byte, RespFixedSize))
	inflated := (&Resp{}).AppendTo(nil)
	inflated[4] = 0xFF
	f.Add(inflated)
	f.Fuzz(func(t *testing.T, b []byte) {
		var r Resp
		if err := r.Decode(b); err != nil {
			return
		}
		if out := r.AppendTo(nil); !bytes.Equal(out, b) {
			t.Fatalf("decode/encode not idempotent:\n in: %x\nout: %x", b, out)
		}
	})
}

// FuzzDecodeAddrMap: a malformed address map errors instead of panicking
// or over-allocating.
func FuzzDecodeAddrMap(f *testing.F) {
	good, err := EncodeAddrMap(map[NodeID]string{0: "10.0.0.1:7000", 3: "[::1]:80"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0xFF, 0xFF}) // declares 64 KiB, carries none
	f.Add(good[:len(good)-1])
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeAddrMap(b)
		if err != nil {
			return
		}
		re, err := EncodeAddrMap(m)
		if err != nil {
			t.Fatalf("decoded map failed to re-encode: %v", err)
		}
		// Entries are unordered on the wire only in that later duplicates
		// overwrite earlier ones; a map without duplicates re-encodes to
		// the same byte count.
		if len(re) > len(b) {
			t.Fatalf("re-encoding grew: %d > %d", len(re), len(b))
		}
	})
}

// benchMsg is the acceptance-criteria frame: a 64 KiB KWriteBlock with a
// realistic placement.
func benchMsg() *Msg {
	return &Msg{
		Kind:  KWriteBlock,
		From:  ClientIDBase,
		Block: BlockID{Ino: 42, Stripe: 7, Idx: 2},
		Data:  make([]byte, 64<<10),
		K:     4,
		M:     2,
		Loc:   StripeLoc{Nodes: []NodeID{1, 2, 3, 4, 5, 6}, Epoch: 3},
	}
}

func BenchmarkMsgEncodeBinary(b *testing.B) {
	m := benchMsg()
	buf := m.AppendTo(nil)
	b.SetBytes(m.WireSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.AppendTo(buf[:0])
	}
	_ = buf
}

func BenchmarkMsgDecodeBinary(b *testing.B) {
	enc := benchMsg().AppendTo(nil)
	var m Msg
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRespEncodeBinary(b *testing.B) {
	r := &Resp{Data: make([]byte, 64<<10), Cost: 12345}
	buf := r.AppendTo(nil)
	b.SetBytes(r.WireSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = r.AppendTo(buf[:0])
	}
	_ = buf
}

func BenchmarkRespDecodeBinary(b *testing.B) {
	enc := (&Resp{Data: make([]byte, 64<<10), Cost: 12345}).AppendTo(nil)
	var r Resp
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
