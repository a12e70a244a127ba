package update

import (
	"repro/internal/erasure"
	"repro/internal/logpool"
	"repro/internal/transport"
	"repro/internal/wire"
)

// parityAppends builds the forward of one stripe's parity-delta lists,
// list j to parity j of b's stripe placed at p: a KParityLogAdd per
// list that is not empty, except to nodes skip names.
func parityAppends(p Placement, b wire.BlockID, lists [][]byte, compress bool, skip func(wire.NodeID) bool) []*transport.BatchCall {
	var calls []*transport.BatchCall
	for j, list := range lists {
		to := p.parityNode(j)
		if len(list) == 0 || (skip != nil && skip(to)) {
			continue
		}
		payload, flag := pack(list, compress)
		calls = append(calls, &transport.BatchCall{To: to, Msg: &wire.Msg{
			Kind: wire.KParityLogAdd, Block: parityBlock(b, p.K, j), Data: payload, Flag: flag,
			K: uint8(p.K), M: uint8(p.M), Loc: p.Loc,
		}})
	}
	return calls
}

// parityDeltaLists is Equation 5 for one stripe: blocks maps a data-block
// index to its data-delta extents, and list p of the result is parity
// p's delta, encoded as the extent list its KParityLogAdd carries.
//
// One XorFold index fed every source extent lays out the union once —
// the extents, and the smallest V of each, that M indexes fed
// coefficient-scaled inserts would hold. Then one pass of the code's
// parity matrix per union extent (erasure.Code.EncodeTo) writes all M
// parity deltas straight into their lists.
func parityDeltaLists(code *erasure.Code, blocks map[int][]logpool.Extent) [][]byte {
	union := logpool.NewIndex(logpool.XorFold)
	folded := make([]*logpool.Index, code.K) // each source's deltas; nil for none
	for src, exts := range blocks {
		if src < 0 || src >= code.K || len(exts) == 0 {
			continue // a data block's deltas only
		}
		folded[src] = logpool.NewIndex(logpool.XorFold)
		for _, e := range exts {
			folded[src].Insert(e.Off, e.Data, e.V)
			union.Insert(e.Off, e.Data, e.V)
		}
	}
	size, widest := 0, 0
	for _, s := range union.Extents() {
		size += extentHeaderSize + len(s.Data)
		widest = max(widest, len(s.Data))
	}
	lists := make([][]byte, code.M)
	for p := range lists {
		lists[p] = make([]byte, size)
	}
	zero := make([]byte, widest) // the input of a source with no deltas
	bufs := make([][]byte, code.K)
	for c, x := range folded {
		if x != nil {
			bufs[c] = make([]byte, widest)
		}
	}
	in, out := make([][]byte, code.K), make([][]byte, code.M)
	pos := 0
	for _, s := range union.Extents() {
		n := len(s.Data)
		for c, x := range folded {
			in[c] = zero[:n]
			if x != nil {
				in[c] = bufs[c][:n]
				clear(in[c])
				x.Overlay(s.Off, in[c])
			}
		}
		for p, list := range lists {
			putExtentHeader(list[pos:], s.Off, n, int64(s.V))
			out[p] = list[pos+extentHeaderSize:][:n]
		}
		code.EncodeTo(out, in)
		pos += extentHeaderSize + n
	}
	return lists
}
