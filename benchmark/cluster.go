package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/device"
	"repro/internal/ecfs"
	"repro/internal/erasure"
	"repro/internal/mdslog"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// Common geometry of every workload: RS(6,4) Vandermonde over 10 OSDs
// with 1 MiB blocks, so a stripe carries 6 MiB of file data and every
// node holds a member of every stripe.
const (
	geomK      = 6
	geomM      = 4
	numOSDs    = 10
	blockSize  = 1 << 20
	stripeSpan = geomK * blockSize
)

// strategyConfig is update.DefaultConfig() with the log pools sized for
// a 2-core box: 2 pools of 4 x 4 MiB units, 2 recycle workers each.
func strategyConfig() update.Config {
	cfg := update.DefaultConfig()
	cfg.BlockSize = blockSize
	cfg.UnitSize = 4 << 20
	cfg.MaxUnits = 4
	cfg.Pools = 2
	cfg.Workers = 2
	return cfg
}

type clusterSpec struct {
	method   string
	dataRoot string // "" keeps both planes in memory
}

func (s clusterSpec) mdsDir() string { return filepath.Join(s.dataRoot, "mds") }

func (s clusterSpec) osdDir(id wire.NodeID) string {
	if s.dataRoot == "" {
		return ""
	}
	return filepath.Join(s.dataRoot, fmt.Sprintf("osd%d", id))
}

// osdNode is one OSD the way cmd/ecfsd runs it: its own peer connection
// pool resolving addresses through the MDS, and a TCP server in front of
// the handler.
type osdNode struct {
	id  wire.NodeID
	osd *ecfs.OSD
	rpc *transport.TCPClient
	srv *transport.TCPServer // nil once stopped
}

// cluster is the deployment under test: one MDS and numOSDs OSDs behind
// transport.ServeTCP on loopback, in this process.
type cluster struct {
	spec    clusterSpec
	mds     *ecfs.MDS
	mdsSrv  *transport.TCPServer
	mdsAddr string
	nodes   []*osdNode

	// Open times of a durable cluster (zero in memory): how long the MDS
	// took to load its namespace and the OSDs, one after another, their
	// data directories. Near zero on a fresh root, the recovery cost on
	// a crashed one.
	mdsOpen, osdOpen time.Duration
}

// resolver asks the MDS for the address map, as ecfsd's OSD role does.
func resolver(rpc *transport.TCPClient) transport.AddrResolver {
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

// startCluster stands the deployment up. A data root that already holds
// a cluster is reopened (that is the crash-restart path). tr, when not
// nil, wraps every handler and every peer RPC with span recording.
func startCluster(ctx context.Context, spec clusterSpec, tr *tracer) (*cluster, error) {
	c := &cluster{spec: spec}
	ids := make([]wire.NodeID, numOSDs)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	var err error
	t0 := time.Now()
	if spec.dataRoot != "" {
		c.mds, err = ecfs.OpenDurableMDS(spec.mdsDir(), ids, geomK, geomM, ecfs.DefaultMDSShards, mdslog.Options{})
		c.mdsOpen = time.Since(t0)
	} else {
		c.mds, err = ecfs.NewMDS(ids, geomK, geomM)
	}
	if err != nil {
		return nil, fmt.Errorf("start mds: %w", err)
	}
	c.mds.SetBlockSize(blockSize)
	c.mdsSrv, err = transport.ServeTCP(wire.MDSNode, "127.0.0.1:0", tr.handler(spanMDSHandler, wire.MDSNode, c.mds.Handler))
	if err != nil {
		c.shutdown(false)
		return nil, err
	}
	c.mdsAddr = c.mdsSrv.Addr()
	c.mds.RecordAddr(wire.MDSNode, c.mdsAddr)

	for _, id := range ids {
		rpc := transport.NewTCPClient(map[wire.NodeID]string{wire.MDSNode: c.mdsAddr})
		rpc.SetResolver(resolver(rpc))
		n := &osdNode{id: id, rpc: rpc}
		c.nodes = append(c.nodes, n)
		t0 := time.Now()
		n.osd, err = ecfs.NewOSDAt(id, device.ChameleonSSD(), tr.rpc(spanPeerCall, id, rpc), spec.method, strategyConfig(), erasure.Vandermonde, spec.osdDir(id))
		c.osdOpen += time.Since(t0)
		if err != nil {
			c.shutdown(false)
			return nil, fmt.Errorf("start osd %d: %w", id, err)
		}
		n.srv, err = transport.ServeTCP(id, "127.0.0.1:0", tr.handler(spanOSDHandler, id, n.osd.Handler))
		if err != nil {
			c.shutdown(false)
			return nil, err
		}
		n.osd.SetListenAddr(n.srv.Addr())
		if err := n.osd.Heartbeat(ctx); err != nil {
			c.shutdown(false)
			return nil, fmt.Errorf("osd %d heartbeat: %w", id, err)
		}
	}
	return c, nil
}

// stopOSD closes one OSD's TCP server: the node stops answering while
// its peers and the MDS keep its address, which is what a client sees
// of a dead node.
func (c *cluster) stopOSD(id wire.NodeID) {
	for _, n := range c.nodes {
		if n.id == id && n.srv != nil {
			n.srv.Close()
			n.srv = nil
		}
	}
}

// shutdown stops every server and connection pool, then ends each node:
// Close for a clean shutdown (durable planes checkpoint), Crash for a
// process kill (no checkpoint; the directories keep what write(2) saw).
func (c *cluster) shutdown(crash bool) {
	for _, n := range c.nodes {
		if n.srv != nil {
			n.srv.Close()
			n.srv = nil
		}
	}
	if c.mdsSrv != nil {
		c.mdsSrv.Close()
		c.mdsSrv = nil
	}
	for _, n := range c.nodes {
		if n.osd != nil {
			if crash {
				n.osd.Crash()
			} else {
				n.osd.Close()
			}
		}
		n.rpc.Close()
	}
	if c.mds != nil {
		if crash {
			c.mds.Crash()
		}
		c.mds.Close()
	}
}

// settle waits until stage 2 has caught up with stage 1: every sealed
// log unit recycled, then the three cluster-wide drain phases (DataLog,
// DeltaLog, ParityLog) so every log layer is empty and parity is folded.
// Methods without logs answer the drain RPCs with nothing to do.
func (c *cluster) settle(ctx context.Context, rpc transport.RPC) error {
	for _, n := range c.nodes {
		if s, ok := n.osd.Strategy().(interface{ Settle() }); ok {
			s.Settle()
		}
	}
	for phase := 1; phase <= update.DrainPhases; phase++ {
		for _, n := range c.nodes {
			resp, err := rpc.Call(ctx, n.id, &wire.Msg{Kind: wire.KDrainLogs, Flag: uint8(phase)})
			if err != nil {
				return fmt.Errorf("drain phase %d on osd %d: %w", phase, n.id, err)
			}
			err = resp.Error()
			resp.Release()
			if err != nil {
				return fmt.Errorf("drain phase %d on osd %d: %w", phase, n.id, err)
			}
		}
	}
	return nil
}
