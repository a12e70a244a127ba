// Package wire defines the RPC message vocabulary of ECFS: the requests
// clients send to the metadata server and OSDs, and the inter-OSD
// messages the update strategies exchange (delta forwards, log replicas,
// parity-log appends). The same messages travel over both transports —
// in-process (with simulated network pricing) and real TCP
// (length-prefixed frames holding the hand-rolled binary encoding of
// codec.go, format v1). WireSize is exact on both: the bytes the
// simulator prices are the bytes TCP ships.
package wire

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
)

// NodeID identifies a node in the cluster. The MDS is node 0; OSDs are
// 1..N; clients use ephemeral IDs >= ClientIDBase.
type NodeID int32

// ClientIDBase is the first NodeID used for clients.
const ClientIDBase NodeID = 1 << 16

// MDSNode is the well-known NodeID of the metadata server.
const MDSNode NodeID = 0

// BlockID names one block of one stripe of one file. Idx is the position
// inside the stripe: 0..K-1 are data blocks, K..K+M-1 are parity blocks.
type BlockID struct {
	Ino    uint64
	Stripe uint32
	Idx    uint8
}

func (b BlockID) String() string {
	return fmt.Sprintf("ino%d/s%d/b%d", b.Ino, b.Stripe, b.Idx)
}

// WithIdx returns the BlockID of another position in the same stripe.
func (b BlockID) WithIdx(idx uint8) BlockID {
	b.Idx = idx
	return b
}

// StripeLoc is the placement of one stripe: Nodes[i] hosts block Idx i.
//
// Epoch is the placement's version. It starts at 0 when the MDS first
// places the stripe and is bumped every time recovery rebinds the stripe
// onto a different node set (a lost block rebuilt onto a replacement
// with a new node id). A client caches the whole StripeLoc; an OSD that
// has learned a newer epoch for the stripe rejects requests carrying an
// older one with StatusStaleEpoch, which tells the client to drop its
// cache entry and re-resolve at the MDS. Nodes slices are immutable
// once published: a rebind installs a fresh StripeLoc rather than
// mutating the old one, so concurrent readers of a cached value are
// always safe.
type StripeLoc struct {
	Nodes []NodeID // length K+M
	Epoch uint64   // placement version; see the type comment
}

// Kind enumerates message types.
type Kind uint8

// Message kinds. Client-facing first, then strategy-internal.
const (
	KInvalid Kind = iota

	// Client -> OSD.
	KWriteBlock // full-block write of a freshly encoded stripe member
	KUpdate     // partial update of a data block (the paper's subject)
	KRead       // read a byte range of a block

	// MDS RPCs.
	KMDSCreate    // create a file, returns ino
	KMDSLookup    // resolve (ino, stripe) -> StripeLoc
	KMDSHeartbeat // OSD liveness report
	KMDSStat      // file size / stripe count

	// Strategy-internal, OSD -> OSD.
	KParityDelta    // apply or log a parity delta at a parity OSD
	KParityLogAdd   // TSUE/PL: append a parity delta to the parity log
	KDeltaLogAdd    // TSUE: append a data delta to a DeltaLog
	KDataLogReplica // TSUE: replicate a DataLog append
	KParixLogAdd    // PARIX: append new (and optionally old) data
	KCordCollect    // CoRD: send a data delta to the stripe collector
	KBlockFetch     // fetch a whole block (recovery / reconstruction)
	KBlockStore     // store a rebuilt block
	KDrainLogs      // force strategy logs to be recycled (pre-recovery)
	KReplicaFetch   // fetch replicated log extents for a block (recovery)
	KPing           // liveness / latency probe
	KEpochUpdate    // repair tells a stripe member about a new placement epoch

	// Repair-subsystem RPCs (client/tool -> MDS).
	KRepairHint   // degraded read promotes a stripe in the active repair queue
	KRepairStatus // query the active repair/drain queue (Val = pending stripes)

	// KResolveAddr asks the MDS for the cluster's node address map (the
	// listen addresses OSDs report in their heartbeats) plus the stripe
	// geometry and block size. It is how tsue.Dial self-discovers a TCP
	// deployment and how a client pool re-resolves a replacement node's
	// address with no manual SetAddr. Reply: Data = EncodeAddrMap,
	// Val = int64(K)<<32 | int64(M), Ino = uint64(blockSize).
	KResolveAddr
)

// FetchReadThrough, set in Msg.Flag on a KBlockFetch, asks the holder to
// serve the block through its update strategy (base content plus any
// pending data-log overlays) instead of the raw store. The drain engine
// uses it so a live migration source hands over read-your-writes content
// without a full cluster log drain per stripe.
const FetchReadThrough uint8 = 1

// StoreUnlessOverwritten, set in Msg.Flag on a KBlockStore carrying a
// placement (Msg.Loc), makes the store a no-op if a client full-block
// write at Loc.Epoch (or newer) has already landed for the stripe: the
// drain engine's post-fence re-store carries *old-epoch* content and
// must never clobber a write acknowledged under the new placement.
const StoreUnlessOverwritten uint8 = 2

// LookupNoBind, set in Msg.Flag on a KMDSLookup, asks only for an
// existing placement: an unplaced stripe answers ErrNotFound instead of
// being placed on first touch. Reads set it, so a read past a file's
// written end changes nothing at the MDS.
const LookupNoBind uint8 = 1

var kindNames = map[Kind]string{
	KInvalid: "invalid", KWriteBlock: "write-block", KUpdate: "update",
	KRead: "read", KMDSCreate: "mds-create", KMDSLookup: "mds-lookup",
	KMDSHeartbeat: "mds-heartbeat", KMDSStat: "mds-stat",
	KParityDelta: "parity-delta", KParityLogAdd: "parity-log-add",
	KDeltaLogAdd: "delta-log-add", KDataLogReplica: "data-log-replica",
	KParixLogAdd: "parix-log-add", KCordCollect: "cord-collect",
	KBlockFetch: "block-fetch", KBlockStore: "block-store",
	KDrainLogs: "drain-logs", KReplicaFetch: "replica-fetch", KPing: "ping",
	KEpochUpdate: "epoch-update", KRepairHint: "repair-hint",
	KRepairStatus: "repair-status", KResolveAddr: "resolve-addr",
}

// Idempotent reports whether a request of this kind may be safely
// re-delivered when the transport cannot tell if the first attempt was
// applied (a connection died after the frame was written). Full-block
// writes and stores are overwrites, epoch updates are monotonic, and
// metadata requests are read-only or open-or-create; log appends and
// partial updates are not re-deliverable.
func (k Kind) Idempotent() bool {
	switch k {
	case KWriteBlock, KRead, KMDSCreate, KMDSLookup, KMDSHeartbeat, KMDSStat,
		KBlockFetch, KBlockStore, KReplicaFetch, KDrainLogs, KPing,
		KEpochUpdate, KRepairHint, KRepairStatus, KResolveAddr:
		return true
	}
	return false
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// DefaultClass maps a kind to the traffic class it is priced under when
// the sender did not tag the message explicitly. Client-facing reads
// (including the block fetches of a degraded read) are foreground-read;
// writes, updates and the strategy-internal forwards they trigger are
// foreground-write; everything only the repair/drain engines send —
// which always tag explicitly — plus control traffic (heartbeats,
// pings, hints, resolution) stays ClassOther.
func (k Kind) DefaultClass() sim.Class {
	switch k {
	case KRead, KMDSLookup, KMDSStat, KBlockFetch, KReplicaFetch:
		return sim.ClassForegroundRead
	case KWriteBlock, KUpdate, KMDSCreate, KParityDelta, KParityLogAdd,
		KDeltaLogAdd, KDataLogReplica, KParixLogAdd, KCordCollect:
		return sim.ClassForegroundWrite
	}
	return sim.ClassOther
}

// Msg is the single envelope for every request. Fields are a union; each
// Kind documents which fields it uses. A flat struct keeps the binary
// codec a fixed layout and the in-process fast path allocation-light.
type Msg struct {
	Kind  Kind
	From  NodeID
	Block BlockID
	Off   uint32
	Size  uint32
	Data  []byte
	Data2 []byte // secondary payload (e.g. PARIX old data)
	Idx   uint8  // data-block index a delta originates from
	K, M  uint8  // stripe geometry
	Loc   StripeLoc
	Seq   uint64 // per-source sequence number for ordered appends
	Name  string // file name for MDS ops
	Flag  uint8  // kind-specific flag (e.g. PARIX first-update)
	// Class tags the traffic class this message (and its reply) is
	// priced under. The zero value defers to the kind's DefaultClass;
	// the repair/drain engines tag their messages ClassRebuild /
	// ClassDrain explicitly so shared resources can account rebuild
	// traffic separately from the foreground workload.
	Class sim.Class
	// V is the virtual workload time (nanoseconds since replay start) at
	// which this request was issued. The timing model uses it for log
	// residence statistics and stall accounting.
	V int64

	// replyBuf is where the caller wants the reply's Data; see
	// SetReplyBuf. Never encoded: like Resp's release hook, it is a
	// local ownership concern, not a wire one.
	replyBuf []byte
	// body is the buffer the transport read the message into, offered
	// to the handler; see TakeBody. Never encoded, like replyBuf.
	body Body
}

// Body is a transport's offer of the buffer it read one request into,
// which Data and Data2 alias. Take hands the buffer over and returns
// the function that gives it back to the transport, or returns nil
// when the buffer is not for taking (already taken, or much larger
// than the request).
type Body interface {
	Take() (free func())
}

// OfferBody is called by a transport that read the message into a
// buffer of its own, after Decode: the handler may then take that
// buffer (TakeBody).
func (m *Msg) OfferBody(b Body) { m.body = b }

// TakeBody takes the buffer Data and Data2 alias from the transport,
// so the handler may keep them past the call without copying them. It
// returns the function that hands the buffer back to the transport,
// which the taker calls once, after its last use of any byte of it.
// It returns nil when the transport offers no buffer — in process,
// where the payloads are the caller's own, or a buffer much larger
// than the request — and then the payloads must be copied to be kept.
// Only the handler takes, during the call, and a reply carries no byte
// of a taken buffer.
func (m *Msg) TakeBody() (free func()) {
	if m.body == nil {
		return nil
	}
	return m.body.Take()
}

// SetReplyBuf names dst as the buffer the reply's Data should land in.
// A transport that reads replies off a stream (TCP) then reads a payload
// that fits straight into dst, and the reply's Data is dst[:n]; a
// transport that cannot (in-process), or a payload that does not fit,
// leaves Data wherever the transport put it — so the caller compares
// before copying. dst belongs to the transport for the duration of the
// call only: nothing writes it after the call returns. One reply buffer
// serves one call at a time.
func (m *Msg) SetReplyBuf(dst []byte) { m.replyBuf = dst }

// ReplyBuf returns the buffer named by SetReplyBuf (nil if none).
func (m *Msg) ReplyBuf() []byte { return m.replyBuf }

// TrafficClass resolves the class this message is priced under: the
// explicit Class tag when set, the kind's default otherwise.
func (m *Msg) TrafficClass() sim.Class {
	if m.Class != sim.ClassOther {
		return m.Class
	}
	return m.Kind.DefaultClass()
}

// WireSize returns the exact number of bytes this message occupies on
// the wire — precisely len(m.AppendTo(nil)) — used by the simulated
// transport for pricing and by the TCP transport as the frame length.
// The fixed header (msgFixedSize bytes, including the 8-byte
// placement epoch) is always paid; the placement nodes, name and
// payloads add their own bytes.
func (m *Msg) WireSize() int64 {
	return msgFixedSize + 4*int64(len(m.Loc.Nodes)) + int64(len(m.Name)) + int64(len(m.Data)) + int64(len(m.Data2))
}

// EncodeAddrMap packs a node address map into a byte payload for the
// KResolveAddr reply: entries in ascending node-id order, each 4-byte
// big-endian id, 2-byte big-endian length, then the address bytes. An
// address longer than the 2-byte length field can carry (64 KiB — far
// beyond any real host:port) is an error, never a silent skip: a
// pathological address must not simply vanish from KResolveAddr
// replies, leaving the node permanently unreachable with no diagnosis.
func EncodeAddrMap(addrs map[NodeID]string) ([]byte, error) {
	ids := make([]NodeID, 0, len(addrs))
	for id := range addrs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []byte
	for _, id := range ids {
		a := addrs[id]
		if len(a) > 0xFFFF {
			return nil, fmt.Errorf("wire: address of node %d is %d bytes, exceeds the 64 KiB wire bound", id, len(a))
		}
		out = append(out, byte(uint32(id)>>24), byte(uint32(id)>>16), byte(uint32(id)>>8), byte(uint32(id)))
		out = append(out, byte(len(a)>>8), byte(len(a)))
		out = append(out, a...)
	}
	return out, nil
}

// DecodeAddrMap unpacks an EncodeAddrMap payload.
func DecodeAddrMap(b []byte) (map[NodeID]string, error) {
	out := make(map[NodeID]string)
	for i := 0; i < len(b); {
		if i+6 > len(b) {
			return nil, errors.New("wire: truncated address map entry")
		}
		id := NodeID(uint32(b[i])<<24 | uint32(b[i+1])<<16 | uint32(b[i+2])<<8 | uint32(b[i+3]))
		n := int(b[i+4])<<8 | int(b[i+5])
		i += 6
		if i+n > len(b) {
			return nil, errors.New("wire: truncated address map address")
		}
		out[id] = string(b[i : i+n])
		i += n
	}
	return out, nil
}

// Status classifies a reply beyond the free-text Err field, so callers
// can react to specific failure shapes (stale placement, absent block)
// without parsing error strings. Every non-OK status also fills Err, so
// code that only checks OK()/Error() keeps working.
type Status uint8

const (
	// StatusOK is the zero value: the request succeeded.
	StatusOK Status = iota
	// StatusError is a generic failure described only by Err.
	StatusError
	// StatusStaleEpoch rejects a request whose StripeLoc carries an
	// older placement epoch than the serving OSD has learned for the
	// stripe. The caller should invalidate its cached placement,
	// re-resolve at the MDS, and retry.
	StatusStaleEpoch
	// StatusNotFound reports that the addressed block has never been
	// written on this node — a normal state for placed-but-unwritten
	// stripes, and distinct from a transport failure. Recovery uses the
	// distinction to tell "never fully written" from data loss.
	StatusNotFound
	// StatusUnreachable reports that serving the request required a peer
	// that could not be reached — a replica fanout target or a forwarded
	// delta's destination down mid-call. The failure happened one hop
	// beyond the responder, so the classification must ride the reply
	// (via ErrorResp) rather than the transport error the end caller
	// never saw directly.
	StatusUnreachable
)

// ErrStaleEpoch, ErrNotFound, and ErrUnreachable are sentinel errors
// wrapped by Resp.Error for the corresponding statuses, so callers can
// use errors.Is across transport boundaries. Transport implementations
// wrap ErrUnreachable into their own node-down errors, which is what
// lets ErrorResp re-classify a one-hop-away outage.
var (
	ErrStaleEpoch  = errors.New("stale placement epoch")
	ErrNotFound    = errors.New("block not found")
	ErrUnreachable = errors.New("peer unreachable")
)

// Resp is the reply to a Msg.
type Resp struct {
	Err  string
	Code Status // structured classification of Err; StatusOK when Err == ""
	Data []byte
	Ino  uint64
	Loc  StripeLoc
	Val  int64
	// Cost is the modeled synchronous latency the remote side (plus the
	// network, on the simulated transport) contributed to this call.
	Cost time.Duration

	// release returns the pooled buffer Data aliases (if any) to its
	// pool, or ends the loan of the bytes it views. Installed by
	// AttachRelease, invoked by Release. Never
	// encoded: ownership is a local concern, not a wire one.
	release func()
}

// AttachRelease installs the recycler for the pooled buffer Data
// aliases, or the end of the loan of the bytes Data views. Transports
// that decode responses into pooled memory call it right after Decode.
// A handler that serves Data from a pooled reply buffer or a lent view
// attaches its release before replying: the TCP server runs it once the
// reply's frame is flushed or dropped, and in process the caller's
// Release does. Everyone else leaves it nil and Release is free.
func (r *Resp) AttachRelease(f func()) { r.release = f }

// Release returns the response's payload buffer to its pool, or ends
// the loan of the block bytes Data is a view of. After Release, Data
// (and anything aliasing it) must not be touched — copy what you need
// first — and Data is never written, before or after. Calling Release
// on a response with no pooled buffer (error replies, most in-process
// replies) is a no-op; a redundant second call is absorbed by the
// transport's release guard, and the transport's debug poison mode
// turns both misuses (double release, use-after-release) into loud
// failures. Releasing is an optimization, never an obligation: a
// dropped response is collected normally, it just costs the pool a
// miss, or the lent block one copy at its next write.
func (r *Resp) Release() {
	if r.release != nil {
		r.release()
	}
}

// StaleEpochResp builds the structured rejection of a request whose
// placement epoch (have) is older than the serving node's (cur). Val
// carries the current epoch so the caller can log the gap.
func StaleEpochResp(b BlockID, have, cur uint64) *Resp {
	return &Resp{
		Code: StatusStaleEpoch,
		Err:  fmt.Sprintf("stale epoch %d for %v (current %d)", have, b, cur),
		Val:  int64(cur),
	}
}

// NotFoundResp builds the structured "block never written here" reply.
func NotFoundResp(from NodeID, b BlockID) *Resp {
	return &Resp{
		Code: StatusNotFound,
		Err:  fmt.Sprintf("osd%d: no block %v", from, b),
	}
}

// IsStale reports whether the reply is a stale-epoch rejection.
func (r *Resp) IsStale() bool { return r.Code == StatusStaleEpoch }

// IsNotFound reports whether the reply is a structured block-not-found.
func (r *Resp) IsNotFound() bool { return r.Code == StatusNotFound }

// WireSize returns the exact number of bytes this reply occupies on the
// wire — precisely len(r.AppendTo(nil)); see Msg.WireSize.
func (r *Resp) WireSize() int64 {
	return RespFixedSize + 4*int64(len(r.Loc.Nodes)) + int64(len(r.Err)) + int64(len(r.Data))
}

// OK reports whether the response carries no error.
func (r *Resp) OK() bool { return r.Err == "" }

// Error converts a non-empty Err field into an error value. Structured
// statuses wrap the matching sentinel so errors.Is(err, ErrStaleEpoch)
// and errors.Is(err, ErrNotFound) work across transports.
func (r *Resp) Error() error {
	if r.Err == "" {
		return nil
	}
	switch r.Code {
	case StatusStaleEpoch:
		return fmt.Errorf("remote: %s: %w", r.Err, ErrStaleEpoch)
	case StatusNotFound:
		return fmt.Errorf("remote: %s: %w", r.Err, ErrNotFound)
	case StatusUnreachable:
		return fmt.Errorf("remote: %s: %w", r.Err, ErrUnreachable)
	}
	return fmt.Errorf("remote: %s", r.Err)
}

// ErrorResp converts an error into a reply, preserving the structured
// classification of any sentinel the error wraps. Without it, a node
// that fails because one of *its* calls failed (a fanout peer down, a
// stale placement seen while forwarding) would flatten the cause into
// free text and the end caller could no longer tell a transient
// fault-window error from a real one.
func ErrorResp(err error) *Resp {
	r := &Resp{Err: err.Error(), Code: StatusError}
	switch {
	case errors.Is(err, ErrStaleEpoch):
		r.Code = StatusStaleEpoch
	case errors.Is(err, ErrNotFound):
		r.Code = StatusNotFound
	case errors.Is(err, ErrUnreachable):
		r.Code = StatusUnreachable
	}
	return r
}
