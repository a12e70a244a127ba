// Package transport delivers wire.Msg RPCs between cluster nodes.
//
// Two implementations share one interface:
//
//   - Inproc: all nodes live in one process; calls are direct function
//     dispatch priced by a netsim.Network. This is what the benchmark
//     harness uses — deterministic, fast, and fully accounted.
//   - TCP: real sockets carrying the fixed-layout binary codec of
//     internal/wire on a multiplexed, pipelined connection per peer
//     (see tcp.go), used by cmd/ecfsd to run an actual distributed
//     cluster.
//
// Both transports price and frame with wire.Msg.WireSize /
// wire.Resp.WireSize, which are exact for the binary codec — the
// simulated byte counts and the bytes TCP ships are the same number.
//
// Every call carries a context.Context. The in-process transport checks
// it before dispatch, so a cancelled context aborts a call chain at the
// next priced step; the TCP transport abandons the call the moment the
// context fires (late responses are discarded by the demux), so a
// cancelled call unblocks immediately.
//
// A Handler processes one message and returns a response; the response's
// Cost field carries the modeled synchronous latency of the remote work
// so callers can extend their own latency path. The handler receives the
// caller's context on the in-process transport (cancellation propagates
// through nested strategy calls) and a background context on TCP, where
// cancellation is a client-side concern.
//
// A reply's payload buffer is released once, by whoever holds the
// reply last. A handler may serve a payload from ReplyBuf, or as a view
// its owner lends (LendRelease), and attach the release to its reply;
// the TCP server runs that release after the reply's frame is flushed
// or dropped, and in process the reply reaches the caller as is, whose
// Resp.Release runs it. Replies the TCP client decodes into pooled
// memory carry the client's own release.
//
// A request's buffer is the transport's, with one exception: the TCP
// server offers each request's pooled buffer to its handler
// (wire.Msg.TakeBody), and a handler that takes it keeps the payloads
// past the call and runs the release that returns the buffer to the
// pool once it is done with them — an in-memory block store keeps a
// full-block write's buffer as the block. In process nothing is
// offered: the payloads are the caller's, and a handler copies them to
// keep them.
package transport

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// Handler processes one inbound message. Implementations must be safe
// for concurrent use. The same buffer contract holds on every
// transport:
//
//   - msg's payloads belong to the transport: a handler reads them
//     during the call and retains nothing past it (TCP recycles the
//     request buffer; in process they are the caller's own slices).
//     The one exception is a buffer the handler takes with
//     wire.Msg.TakeBody: TCP offers each request's buffer, the taker
//     keeps it until it runs the returned release, and in process
//     nothing is offered, so the payloads are copied to be kept.
//   - The returned Resp, Data included, belongs to the transport from
//     the moment it is returned: the handler must not touch it again.
//     Data may be fresh memory, a slice of msg's payloads, a buffer
//     from ReplyBuf, or a lent view whose owner writes no byte of it
//     until its release (LendRelease) — with the release attached;
//     TCP keeps the request buffer alive and runs the reply's release
//     once the response has been written.
type Handler func(ctx context.Context, msg *wire.Msg) *wire.Resp

// RPC sends messages to nodes.
type RPC interface {
	// Call delivers msg to node `to` and returns its response. The
	// response Cost includes remote compute and (on simulated
	// transports) the network transfer cost both ways. A cancelled or
	// expired ctx aborts the call with ctx.Err() wrapped in the return.
	//
	// msg's payloads are borrowed for the duration of the call: the
	// caller must not change them before Call returns, and no transport
	// reads them afterwards. A reply buffer named with
	// msg.SetReplyBuf is likewise the transport's only until Call
	// returns; TCP reads a fitting reply payload straight into it,
	// other transports may ignore it, so callers compare Resp.Data
	// with it before copying.
	Call(ctx context.Context, to wire.NodeID, msg *wire.Msg) (*wire.Resp, error)
	// CallBatch delivers a set of calls and returns once every call has
	// its Resp or Err set. Each call has Call's semantics; a transport
	// delivers the set as it can best: the TCP client groups
	// same-destination calls so their frames enter the connection's
	// write queue together and leave in one coalesced flush, and the
	// in-process transport runs them concurrently.
	CallBatch(ctx context.Context, calls []*BatchCall)
}

// Registrar accepts handler registrations for nodes.
type Registrar interface {
	Register(id wire.NodeID, h Handler)
}

// BatchCall is one call of a batch: destination and message in, response
// or error out. Exactly one of Resp/Err is set once the batch returns.
type BatchCall struct {
	To   wire.NodeID
	Msg  *wire.Msg
	Resp *wire.Resp
	Err  error
}

// ErrNodeUnreachable is the sentinel wrapped by every transport-level
// delivery failure — a deregistered in-process node, a refused TCP dial,
// a connection that died mid-call. errors.Is(err, ErrNodeUnreachable)
// therefore distinguishes "could not reach the node" from a structured
// remote rejection on both transports. It wraps wire.ErrUnreachable so
// the classification survives a further wire crossing: a handler that
// fails because *its* peer call failed converts the error with
// wire.ErrorResp, and the end caller still sees the unreachable class.
var ErrNodeUnreachable = fmt.Errorf("node unreachable: %w", wire.ErrUnreachable)

// Inproc is the in-process transport. It is both an RPC (from any node)
// and a Registrar. Message payloads are passed by reference and the
// handler's Resp is returned as is, under the Handler contract — the
// same one TCP imposes — so code correct here is correct over sockets.
// Reply buffers (wire.Msg.SetReplyBuf) are ignored: Resp.Data is
// whatever the handler returned.
type Inproc struct {
	net *netsim.Network

	mu       sync.RWMutex
	handlers map[wire.NodeID]Handler
	nics     map[wire.NodeID]*netsim.NIC
}

// NewInproc creates an in-process transport priced by net. net may be
// nil, in which case calls are free (useful in unit tests).
func NewInproc(net *netsim.Network) *Inproc {
	return &Inproc{
		net:      net,
		handlers: make(map[wire.NodeID]Handler),
		nics:     make(map[wire.NodeID]*netsim.NIC),
	}
}

// Register installs the handler for a node and provisions its NIC.
func (t *Inproc) Register(id wire.NodeID, h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers[id] = h
	if t.net != nil && t.nics[id] == nil {
		t.nics[id] = t.net.AddNIC(fmt.Sprintf("node%d", id))
	}
}

// Deregister removes a node (used to simulate node failure).
func (t *Inproc) Deregister(id wire.NodeID) {
	t.mu.Lock()
	delete(t.handlers, id)
	t.mu.Unlock()
}

// ensureNIC provisions a NIC for nodes that only ever send (clients).
func (t *Inproc) ensureNIC(id wire.NodeID) *netsim.NIC {
	if t.net == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nics[id] == nil {
		t.nics[id] = t.net.AddNIC(fmt.Sprintf("node%d", id))
	}
	return t.nics[id]
}

// Caller returns an RPC bound to a source node, so network costs are
// charged to the right NIC.
func (t *Inproc) Caller(from wire.NodeID) RPC {
	return &inprocCaller{t: t, from: from}
}

type inprocCaller struct {
	t    *Inproc
	from wire.NodeID
}

// ErrNodeDown is returned when the destination has no handler (failed or
// never registered). It wraps ErrNodeUnreachable.
type ErrNodeDown struct{ Node wire.NodeID }

func (e ErrNodeDown) Error() string { return fmt.Sprintf("transport: node %d down", e.Node) }

// Unwrap makes errors.Is(err, ErrNodeUnreachable) hold.
func (e ErrNodeDown) Unwrap() error { return ErrNodeUnreachable }

func (c *inprocCaller) Call(ctx context.Context, to wire.NodeID, msg *wire.Msg) (*wire.Resp, error) {
	// Honor cancellation between priced steps: each hop of a call chain
	// (client op, strategy forward, recovery fetch) re-checks the
	// context before dispatching.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("transport: call %v to node %d: %w", msg.Kind, to, err)
	}
	t := c.t
	t.mu.RLock()
	h := t.handlers[to]
	dstNIC := t.nics[to]
	t.mu.RUnlock()
	if h == nil {
		return nil, ErrNodeDown{Node: to}
	}
	msg.From = c.from
	// Both directions of the exchange are priced under the message's
	// traffic class (explicit tag, or the kind's default), so shared
	// NICs account foreground and rebuild/drain busy time separately.
	cls := msg.TrafficClass()
	var cost time.Duration
	if t.net != nil {
		src := t.ensureNIC(c.from)
		cost = t.net.Transfer(cls, src, dstNIC, msg.WireSize())
	}
	resp := h(ctx, msg)
	if resp == nil {
		resp = &wire.Resp{}
	}
	if t.net != nil {
		dst := t.ensureNIC(c.from)
		cost += t.net.Transfer(cls, dstNIC, dst, resp.WireSize())
	}
	resp.Cost += cost
	return resp, nil
}

// CallBatch implements RPC: one concurrent Call per call.
func (c *inprocCaller) CallBatch(ctx context.Context, calls []*BatchCall) {
	var wg sync.WaitGroup
	for _, bc := range calls {
		wg.Add(1)
		go func(bc *BatchCall) {
			defer wg.Done()
			bc.Resp, bc.Err = c.Call(ctx, bc.To, bc.Msg)
		}(bc)
	}
	wg.Wait()
}
