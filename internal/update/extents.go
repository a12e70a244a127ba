package update

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/erasure"
	"repro/internal/gf256"
	"repro/internal/logpool"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ExtentRec is one record of a decoded extent list: a byte range of a
// block, the virtual time it was logged at, and its bytes. Extent lists
// are the payload of every log append between OSDs (KDeltaLogAdd,
// KParityLogAdd) and of a KReplicaFetch reply; a single extent is a list
// of one. Senders write a list straight from log extents (listSlots,
// encodeList); DecodeExtents reads one back as records.
type ExtentRec struct {
	Off  uint32
	V    int64
	Data []byte
}

// extentHeaderSize is the per-record header: [off u32][len u32][v i64].
const extentHeaderSize = 16

func putExtentHeader(dst []byte, off uint32, n int, v int64) {
	binary.LittleEndian.PutUint32(dst[0:], off)
	binary.LittleEndian.PutUint32(dst[4:], uint32(n))
	binary.LittleEndian.PutUint64(dst[8:], uint64(v))
}

// listSize is the byte length of the extent list of exts.
func listSize(exts []logpool.Extent) int {
	n := 0
	for _, e := range exts {
		n += extentHeaderSize + len(e.Data)
	}
	return n
}

// listSlots lays out the extent list of exts in list, every record
// stamped v, and returns each record's payload slot unfilled: the
// caller writes the bytes in place. list holds listSize(exts) bytes.
func listSlots(list []byte, exts []logpool.Extent, v int64) [][]byte {
	slots := make([][]byte, len(exts))
	pos := 0
	for i, e := range exts {
		n := len(e.Data)
		putExtentHeader(list[pos:], e.Off, n, v)
		pos += extentHeaderSize
		slots[i] = list[pos : pos+n : pos+n]
		pos += n
	}
	return slots
}

// encodeList writes the extent list of exts into list, which holds
// listSize(exts) bytes: each record keeps its extent's own V and bytes.
func encodeList(list []byte, exts []logpool.Extent) {
	pos := 0
	for _, e := range exts {
		putExtentHeader(list[pos:], e.Off, len(e.Data), int64(e.V))
		pos += extentHeaderSize
		pos += copy(list[pos:], e.Data)
	}
}

// deltaPool recycles the buffers a data overwrite writes its deltas
// into and a fanout sends them from: a bare delta, the extent list
// that carries it, or the M parity-delta lists scaled from it. A buffer
// goes back once the calls that borrowed it have returned, which is
// when transport.RPC ends the borrow.
var deltaPool = sync.Pool{New: func() any { return new([]byte) }}

// getDeltaBuf returns a pooled buffer of n bytes, holding stale bytes;
// putDeltaBuf gives it back.
func getDeltaBuf(n int) *[]byte {
	b := deltaPool.Get().(*[]byte)
	if cap(*b) < n {
		*b = make([]byte, n)
	}
	*b = (*b)[:n]
	return b
}

func putDeltaBuf(b *[]byte) { deltaPool.Put(b) }

// getLists returns a pooled buffer cut into m lists of size bytes each,
// holding stale bytes; putDeltaBuf gives the buffer back.
func getLists(m, size int) (*[]byte, [][]byte) {
	buf := getDeltaBuf(m * size)
	lists := make([][]byte, m)
	for j := range lists {
		lists[j] = (*buf)[j*size : (j+1)*size : (j+1)*size]
	}
	return buf, lists
}

// scaleLists writes into lists the M parity-delta lists of deltas, an
// extent list of data block src's deltas (Eq. 2): list j is deltas with
// every record's bytes scaled by α_j,src. Every list holds len(deltas)
// bytes, and lists[0] may be deltas itself: it is written last, in
// place. This is the one place a sender scales by α, so every parity
// log holds parity deltas.
func scaleLists(code *erasure.Code, src int, deltas []byte, lists [][]byte) {
	for j := len(lists) - 1; j >= 0; j-- {
		c, list := code.Coeff(j, src), lists[j]
		for pos := 0; pos < len(deltas); {
			n := int(binary.LittleEndian.Uint32(deltas[pos+4:]))
			copy(list[pos:pos+extentHeaderSize], deltas[pos:])
			pos += extentHeaderSize
			gf256.MulSlice(c, list[pos:pos+n], deltas[pos:pos+n])
			pos += n
		}
	}
}

// DecodeExtents unpacks an extent list: repeated
// [off u32][len u32][v i64][bytes], little-endian. Each record's Data
// aliases b; copy what must outlive b.
func DecodeExtents(b []byte) ([]ExtentRec, error) {
	var out []ExtentRec
	for len(b) > 0 {
		if len(b) < extentHeaderSize {
			return nil, fmt.Errorf("update: truncated extent header")
		}
		off := binary.LittleEndian.Uint32(b[0:])
		n := binary.LittleEndian.Uint32(b[4:])
		v := int64(binary.LittleEndian.Uint64(b[8:]))
		b = b[extentHeaderSize:]
		if uint64(n) > uint64(len(b)) {
			return nil, fmt.Errorf("update: extent of %d bytes overruns its %d-byte list", n, len(b))
		}
		out = append(out, ExtentRec{Off: off, V: v, Data: b[:n:n]})
		b = b[n:]
	}
	return out, nil
}

// pack deflates an encoded extent list when compress is set and
// deflating shrinks it; flag marks a deflated payload for unpackList.
func pack(list []byte, compress bool) (payload []byte, flag uint8) {
	if compress {
		if c, ok := compressDelta(list); ok {
			return c, deltaCompressFlag
		}
	}
	return list, 0
}

// unpackList decodes the extent list a log-append message carries,
// inflating it first if its flag says so.
func unpackList(msg *wire.Msg) ([]ExtentRec, error) {
	data := msg.Data
	if msg.Flag&deltaCompressFlag != 0 {
		var err error
		if data, err = decompressDelta(data); err != nil {
			return nil, err
		}
	}
	return DecodeExtents(data)
}

// applyList applies each record of msg's extent list with apply and
// answers with the summed cost.
func applyList(msg *wire.Msg, apply func(ExtentRec) time.Duration) *wire.Resp {
	recs, err := unpackList(msg)
	if err != nil {
		return errResp(err)
	}
	var cost time.Duration
	for _, r := range recs {
		cost += apply(r)
	}
	return okResp(cost)
}

// appendList appends each record of msg's extent list, parity or data
// deltas of msg.Block, to the block's pool in set.
func appendList(set *logpool.PoolSet, msg *wire.Msg) *wire.Resp {
	return applyList(msg, func(r ExtentRec) time.Duration {
		return set.Append(msg.Block, r.Off, r.Data, time.Duration(r.V))
	})
}

// deliver sends calls as one batch (a lone call directly) and returns
// the summed and the largest cost of the successful replies, and the
// first transport or remote error. Every reply is released here: its
// callers consume only Cost and the status.
func deliver(ctx context.Context, env Env, calls []*transport.BatchCall) (sum, most time.Duration, err error) {
	if len(calls) == 1 {
		calls[0].Resp, calls[0].Err = env.Call(ctx, calls[0].To, calls[0].Msg)
	} else if len(calls) > 1 {
		env.CallBatch(ctx, calls)
	}
	for _, call := range calls {
		e := call.Err
		if e == nil {
			if e = call.Resp.Error(); e == nil {
				sum += call.Resp.Cost
				most = max(most, call.Resp.Cost)
			}
			call.Resp.Release()
		}
		if err == nil {
			err = e
		}
	}
	return sum, most, err
}
