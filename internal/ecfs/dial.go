package ecfs

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/erasure"
	"repro/internal/transport"
	"repro/internal/wire"
)

// dialClientSeq hands out distinct client node ids within this process.
// Client ids only matter for accounting (the TCP transport does not
// price by NIC), so process-local uniqueness suffices.
var dialClientSeq atomic.Int32

// RemoteClient is a client of a TCP-deployed ECFS cluster, obtained
// from Dial. It embeds a *Client (so Open and the File handles it
// returns are available) and owns the underlying connection
// pool, which re-resolves node addresses through the MDS
// (wire.KResolveAddr) whenever a node is unreachable or unknown — a
// replacement OSD that announced itself via heartbeats is found with no
// manual SetAddr.
type RemoteClient struct {
	*Client
	rpc  *transport.TCPClient
	k, m int
}

// Dial connects to a TCP-deployed ECFS cluster knowing only the MDS
// address. It self-discovers everything else over wire.KResolveAddr:
// the node address map (fed by OSD heartbeats), the stripe geometry and
// the block size. The returned client's pool keeps re-resolving through
// the same RPC, so fresh-id recovery and node restarts on new ports are
// followed transparently.
//
// The deployment must report its configuration: cmd/ecfsd's MDS role
// does (its -k/-m/-block flags), and OSDs announce their listen
// addresses on every heartbeat.
func Dial(ctx context.Context, mdsAddr string) (*RemoteClient, error) {
	rpc := transport.NewTCPClient(map[wire.NodeID]string{wire.MDSNode: mdsAddr})
	resp, err := rpc.Call(ctx, wire.MDSNode, &wire.Msg{Kind: wire.KResolveAddr})
	if err != nil {
		rpc.Close()
		return nil, fmt.Errorf("ecfs: dial %s: %w", mdsAddr, err)
	}
	// DecodeAddrMap copies every entry out of the payload, so the
	// response buffer can go back to the pool when Dial returns.
	defer resp.Release()
	if err := resp.Error(); err != nil {
		rpc.Close()
		return nil, fmt.Errorf("ecfs: dial %s: %w", mdsAddr, err)
	}
	k, m, blockSize := int(resp.Val>>32), int(resp.Val&0xFFFFFFFF), int(resp.Ino)
	if k < 1 || m < 1 || blockSize < 1 {
		rpc.Close()
		return nil, fmt.Errorf("ecfs: dial %s: MDS did not report cluster geometry (k=%d m=%d block=%d); does the deployment set it (ecfsd -k/-m/-block)?", mdsAddr, k, m, blockSize)
	}
	addrs, err := wire.DecodeAddrMap(resp.Data)
	if err != nil {
		rpc.Close()
		return nil, fmt.Errorf("ecfs: dial %s: %w", mdsAddr, err)
	}
	// The MDS itself stays reachable at the dialed address even if the
	// map carries no (or a non-routable) self entry.
	delete(addrs, wire.MDSNode)
	rpc.UpdateAddrs(addrs)
	rpc.SetResolver(MDSResolver(rpc))
	code, err := erasure.New(k, m, erasure.Vandermonde)
	if err != nil {
		rpc.Close()
		return nil, err
	}
	id := wire.ClientIDBase + wire.NodeID(dialClientSeq.Add(1))
	return &RemoteClient{
		Client: NewClient(id, rpc, code, blockSize),
		rpc:    rpc,
		k:      k, m: m,
	}, nil
}

// MDSResolver returns the address resolver every TCP node and client
// uses: ask the MDS over rpc for its address map (wire.KResolveAddr).
// The map's MDS entry is dropped, so rpc keeps the configured MDS
// address, and the reply goes back to the pool before the resolver
// returns.
func MDSResolver(rpc *transport.TCPClient) transport.AddrResolver {
	return func(ctx context.Context) (map[wire.NodeID]string, error) {
		r, err := rpc.Call(ctx, wire.MDSNode, &wire.Msg{Kind: wire.KResolveAddr})
		if err != nil {
			return nil, err
		}
		defer r.Release()
		if err := r.Error(); err != nil {
			return nil, err
		}
		out, err := wire.DecodeAddrMap(r.Data)
		if err != nil {
			return nil, err
		}
		delete(out, wire.MDSNode)
		return out, nil
	}
}

// Geometry returns the discovered stripe geometry (K, M).
func (r *RemoteClient) Geometry() (int, int) { return r.k, r.m }

// Transport exposes the underlying TCP pool (tests, diagnostics).
func (r *RemoteClient) Transport() *transport.TCPClient { return r.rpc }

// Close releases the connection pool. Open File handles share it and
// become unusable.
func (r *RemoteClient) Close() error {
	r.rpc.Close()
	return nil
}
