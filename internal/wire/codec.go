// Binary wire codec (format v1).
//
// Every frame body the TCP transport ships is one Msg or Resp encoded by
// the hand-rolled codec below: a fixed-layout header holding the union's
// scalar fields at hard-coded big-endian offsets, followed by the
// variable sections (placement nodes, name, payloads) whose lengths the
// header declares. No reflection, no per-field type tags, no varints —
// encoding is a handful of stores plus payload copies, and decoding is
// bounds checks plus sub-slicing, so the data plane allocates nothing on
// encode and only the payload-aliasing struct fields on decode.
//
// The first byte of every encoding is FormatVersion. A decoder that sees
// any other value — a frame from the retired gob framing, or a future
// format — rejects the frame with ErrBadFormat instead of guessing;
// mixed-format deployments are unsupported (docs/OPERATIONS.md).
//
// WireSize is exact: it returns precisely len(AppendTo(nil)), and the
// in-process transport and the repair scheduler's priced-byte token
// bucket charge those same bytes, so simulated pricing and what TCP
// actually ships agree to the byte.
//
// The payloads (Data, Data2) are always the encoding's tail, so an
// encoding splits into a header — AppendHeaderTo: every other field,
// plus the payload lengths — followed by the payload bytes verbatim.
// The TCP transport ships the header from its own buffer and the
// payloads from the caller's slices, and reads a reply's header apart
// from its payload (RespSections, Resp.DecodeHeader) so the payload can
// land straight in a buffer the caller named. The bytes on the wire are
// the same either way.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
)

// FormatVersion is the one-byte wire format version leading every
// encoded Msg and Resp. Bump it when the layout changes; decoders
// reject every version but their own.
const FormatVersion = 1

// ErrBadFormat rejects a frame that does not start with FormatVersion —
// typically a peer still speaking the retired gob framing. Mixed
// deployments are unsupported; upgrade every node together.
var ErrBadFormat = errors.New("unsupported wire format (mixed gob/binary deployment?)")

// Fixed header sizes of the v1 layouts (see AppendTo for the field
// offsets). WireSize builds on these, so they are exact by definition.
// RespFixedSize is also the prefix RespSections reads the rest of a
// Resp's layout from.
const (
	msgFixedSize  = 68
	RespFixedSize = 44
)

// maxLocNodes bounds the placement width a frame may carry. K+M tops
// out far below this; the bound keeps a corrupt header from asking the
// decoder for an absurd node slice.
const maxLocNodes = 0xFFFF

// Msg v1 layout, all integers big-endian:
//
//	[0]      format version (FormatVersion)
//	[1]      Kind
//	[2]      Flag
//	[3]      Class
//	[4]      Idx           (delta-origin data-block index)
//	[5]      K
//	[6]      M
//	[7]      Block.Idx
//	[8:12]   From          (int32)
//	[12:16]  Block.Stripe
//	[16:24]  Block.Ino
//	[24:28]  Off
//	[28:32]  Size
//	[32:40]  Seq
//	[40:48]  V             (int64)
//	[48:56]  Loc.Epoch
//	[56:60]  len(Data)
//	[60:64]  len(Data2)
//	[64:66]  len(Name)     (uint16)
//	[66:68]  len(Loc.Nodes) (uint16)
//	[68:]    Loc.Nodes (4 bytes each) | Name | Data | Data2
//
// AppendTo appends the encoding of m to buf and returns the extended
// slice: AppendHeaderTo, then Data, then Data2. It allocates only when
// buf lacks capacity, so a pooled buffer makes encoding
// allocation-free. Panics if Name or Loc.Nodes exceed their uint16
// length fields — both are bounded far below that by construction
// (names are file paths, placements are K+M wide).
func (m *Msg) AppendTo(buf []byte) []byte {
	buf = growBuf(buf, int(m.WireSize()))
	buf = m.AppendHeaderTo(buf)
	buf = append(buf, m.Data...)
	return append(buf, m.Data2...)
}

// AppendHeaderTo appends every byte of m's encoding but the payloads:
// the fixed header (which declares len(Data) and len(Data2)), the
// placement nodes and the name. Data and then Data2, sent verbatim
// after it, complete the frame AppendTo would have built.
func (m *Msg) AppendHeaderTo(buf []byte) []byte {
	if len(m.Name) > 0xFFFF {
		panic(fmt.Sprintf("wire: message name of %d bytes exceeds the wire format's 64 KiB bound", len(m.Name)))
	}
	if len(m.Loc.Nodes) > maxLocNodes {
		panic(fmt.Sprintf("wire: placement of %d nodes exceeds the wire format bound", len(m.Loc.Nodes)))
	}
	buf = growBuf(buf, msgFixedSize+4*len(m.Loc.Nodes)+len(m.Name))
	h := buf[len(buf) : len(buf)+msgFixedSize]
	h[0] = FormatVersion
	h[1] = byte(m.Kind)
	h[2] = m.Flag
	h[3] = byte(m.Class)
	h[4] = m.Idx
	h[5] = m.K
	h[6] = m.M
	h[7] = m.Block.Idx
	binary.BigEndian.PutUint32(h[8:12], uint32(m.From))
	binary.BigEndian.PutUint32(h[12:16], m.Block.Stripe)
	binary.BigEndian.PutUint64(h[16:24], m.Block.Ino)
	binary.BigEndian.PutUint32(h[24:28], m.Off)
	binary.BigEndian.PutUint32(h[28:32], m.Size)
	binary.BigEndian.PutUint64(h[32:40], m.Seq)
	binary.BigEndian.PutUint64(h[40:48], uint64(m.V))
	binary.BigEndian.PutUint64(h[48:56], m.Loc.Epoch)
	binary.BigEndian.PutUint32(h[56:60], uint32(len(m.Data)))
	binary.BigEndian.PutUint32(h[60:64], uint32(len(m.Data2)))
	binary.BigEndian.PutUint16(h[64:66], uint16(len(m.Name)))
	binary.BigEndian.PutUint16(h[66:68], uint16(len(m.Loc.Nodes)))
	buf = buf[:len(buf)+msgFixedSize]
	for _, n := range m.Loc.Nodes {
		buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	}
	return append(buf, m.Name...)
}

// Decode parses a v1 encoding into m, replacing every field. Data and
// Data2 alias b — the caller owns b's lifetime and must not recycle it
// while the decoded message is live. A malformed frame — wrong version,
// truncated header, or section lengths that do not add up to exactly
// len(b) — returns an error without allocating anything beyond what the
// declared (and verified) lengths require; Decode never panics on
// adversarial input.
func (m *Msg) Decode(b []byte) error {
	if len(b) < msgFixedSize {
		return fmt.Errorf("wire: message frame of %d bytes, need at least %d", len(b), msgFixedSize)
	}
	if b[0] != FormatVersion {
		return fmt.Errorf("wire: message frame declares format %d, this build speaks %d: %w", b[0], FormatVersion, ErrBadFormat)
	}
	dataLen := int(binary.BigEndian.Uint32(b[56:60]))
	data2Len := int(binary.BigEndian.Uint32(b[60:64]))
	nameLen := int(binary.BigEndian.Uint16(b[64:66]))
	nodes := int(binary.BigEndian.Uint16(b[66:68]))
	need := msgFixedSize + 4*nodes + nameLen
	// Payload lengths are 32-bit; sum in the frame's int domain only
	// after the small sections proved in-bounds, to keep a corrupt
	// header from overflowing the bound check.
	if need > len(b) || dataLen > len(b)-need || data2Len > len(b)-need-dataLen {
		return fmt.Errorf("wire: message sections exceed frame of %d bytes", len(b))
	}
	if need+dataLen+data2Len != len(b) {
		return fmt.Errorf("wire: message frame of %d bytes carries %d trailing bytes", len(b), len(b)-need-dataLen-data2Len)
	}
	*m = Msg{
		Kind:  Kind(b[1]),
		Flag:  b[2],
		Class: sim.Class(b[3]),
		Idx:   b[4],
		K:     b[5],
		M:     b[6],
		Block: BlockID{
			Idx:    b[7],
			Stripe: binary.BigEndian.Uint32(b[12:16]),
			Ino:    binary.BigEndian.Uint64(b[16:24]),
		},
		From: NodeID(int32(binary.BigEndian.Uint32(b[8:12]))),
		Off:  binary.BigEndian.Uint32(b[24:28]),
		Size: binary.BigEndian.Uint32(b[28:32]),
		Seq:  binary.BigEndian.Uint64(b[32:40]),
		V:    int64(binary.BigEndian.Uint64(b[40:48])),
	}
	off := msgFixedSize
	if nodes > 0 {
		m.Loc.Nodes = make([]NodeID, nodes)
		for i := range m.Loc.Nodes {
			m.Loc.Nodes[i] = NodeID(int32(binary.BigEndian.Uint32(b[off : off+4])))
			off += 4
		}
	}
	m.Loc.Epoch = binary.BigEndian.Uint64(b[48:56])
	if nameLen > 0 {
		m.Name = string(b[off : off+nameLen])
		off += nameLen
	}
	if dataLen > 0 {
		m.Data = b[off : off+dataLen : off+dataLen]
		off += dataLen
	}
	if data2Len > 0 {
		m.Data2 = b[off : off+data2Len : off+data2Len]
	}
	return nil
}

// Resp v1 layout, all integers big-endian:
//
//	[0]      format version (FormatVersion)
//	[1]      Code
//	[2:4]    len(Loc.Nodes) (uint16)
//	[4:8]    len(Err)
//	[8:12]   len(Data)
//	[12:20]  Ino
//	[20:28]  Val            (int64)
//	[28:36]  Cost           (int64 nanoseconds)
//	[36:44]  Loc.Epoch
//	[44:]    Loc.Nodes (4 bytes each) | Err | Data
//
// AppendTo appends the encoding of r to buf and returns the extended
// slice — AppendHeaderTo, then Data; see Msg.AppendTo for the
// allocation contract.
func (r *Resp) AppendTo(buf []byte) []byte {
	buf = growBuf(buf, int(r.WireSize()))
	buf = r.AppendHeaderTo(buf)
	return append(buf, r.Data...)
}

// AppendHeaderTo appends every byte of r's encoding but Data: the fixed
// header (which declares len(Data)), the placement nodes and Err.
func (r *Resp) AppendHeaderTo(buf []byte) []byte {
	if len(r.Loc.Nodes) > maxLocNodes {
		panic(fmt.Sprintf("wire: placement of %d nodes exceeds the wire format bound", len(r.Loc.Nodes)))
	}
	buf = growBuf(buf, RespFixedSize+4*len(r.Loc.Nodes)+len(r.Err))
	h := buf[len(buf) : len(buf)+RespFixedSize]
	h[0] = FormatVersion
	h[1] = byte(r.Code)
	binary.BigEndian.PutUint16(h[2:4], uint16(len(r.Loc.Nodes)))
	binary.BigEndian.PutUint32(h[4:8], uint32(len(r.Err)))
	binary.BigEndian.PutUint32(h[8:12], uint32(len(r.Data)))
	binary.BigEndian.PutUint64(h[12:20], r.Ino)
	binary.BigEndian.PutUint64(h[20:28], uint64(r.Val))
	binary.BigEndian.PutUint64(h[28:36], uint64(r.Cost))
	binary.BigEndian.PutUint64(h[36:44], r.Loc.Epoch)
	buf = buf[:len(buf)+RespFixedSize]
	for _, n := range r.Loc.Nodes {
		buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	}
	return append(buf, r.Err...)
}

// RespSections reads the section lengths an encoded Resp declares in its
// fixed prefix (b holds at least RespFixedSize bytes of the encoding):
// header is the length of what AppendHeaderTo wrote, data the length of
// the Data payload that follows it. A stream reader peeks the prefix to
// learn how much header to decode before the payload starts.
func RespSections(b []byte) (header, data int, err error) {
	if len(b) < RespFixedSize {
		return 0, 0, fmt.Errorf("wire: response frame of %d bytes, need at least %d", len(b), RespFixedSize)
	}
	if b[0] != FormatVersion {
		return 0, 0, fmt.Errorf("wire: response frame declares format %d, this build speaks %d: %w", b[0], FormatVersion, ErrBadFormat)
	}
	nodes := int(binary.BigEndian.Uint16(b[2:4]))
	errLen := int(binary.BigEndian.Uint32(b[4:8]))
	return RespFixedSize + 4*nodes + errLen, int(binary.BigEndian.Uint32(b[8:12])), nil
}

// Decode parses a v1 encoding into r, replacing every field. Data
// aliases b; see Msg.Decode for the validation and allocation contract.
func (r *Resp) Decode(b []byte) error {
	header, data, err := RespSections(b)
	if err != nil {
		return err
	}
	if header > len(b) || data > len(b)-header {
		return fmt.Errorf("wire: response sections exceed frame of %d bytes", len(b))
	}
	if header+data != len(b) {
		return fmt.Errorf("wire: response frame of %d bytes carries %d trailing bytes", len(b), len(b)-header-data)
	}
	r.decodeHeader(b[:header])
	if data > 0 {
		r.Data = b[header:len(b):len(b)]
	}
	return nil
}

// DecodeHeader parses exactly the header of an encoding — the bytes
// AppendHeaderTo wrote — into r, replacing every field. Data is left
// nil: the payload (RespSections gives its length) follows on the
// stream, for the caller to read wherever it wants it. Nothing in r
// aliases b.
func (r *Resp) DecodeHeader(b []byte) error {
	header, _, err := RespSections(b)
	if err != nil {
		return err
	}
	if header != len(b) {
		return fmt.Errorf("wire: response header of %d bytes declares %d", len(b), header)
	}
	r.decodeHeader(b)
	return nil
}

// decodeHeader fills r from a header whose section lengths are
// validated against len(b).
func (r *Resp) decodeHeader(b []byte) {
	nodes := int(binary.BigEndian.Uint16(b[2:4]))
	*r = Resp{
		Code: Status(b[1]),
		Ino:  binary.BigEndian.Uint64(b[12:20]),
		Val:  int64(binary.BigEndian.Uint64(b[20:28])),
		Cost: time.Duration(int64(binary.BigEndian.Uint64(b[28:36]))),
	}
	off := RespFixedSize
	if nodes > 0 {
		r.Loc.Nodes = make([]NodeID, nodes)
		for i := range r.Loc.Nodes {
			r.Loc.Nodes[i] = NodeID(int32(binary.BigEndian.Uint32(b[off : off+4])))
			off += 4
		}
	}
	r.Loc.Epoch = binary.BigEndian.Uint64(b[36:44])
	if off < len(b) {
		r.Err = string(b[off:])
	}
}

// growBuf ensures buf has capacity for need more bytes.
func growBuf(buf []byte, need int) []byte {
	if cap(buf)-len(buf) >= need {
		return buf
	}
	grown := make([]byte, len(buf), len(buf)+need)
	copy(grown, buf)
	return grown
}
