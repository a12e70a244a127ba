// Command ecfsd runs one ECFS node — the metadata server or an OSD —
// over real TCP, so the same file system that the benchmark harness
// drives in-process can be deployed as an actual distributed cluster.
//
// The deployment is self-discovering: OSDs report their listen address
// in every heartbeat, the MDS serves the resulting address map (plus
// the stripe geometry and block size) over wire.KResolveAddr, and both
// OSD peers and clients (tsue.Dial / ecfscli -mds) resolve node
// addresses through it. Only the MDS address needs to be configured
// anywhere.
//
// A 3-OSD toy cluster on one machine:
//
//	ecfsd -role mds -listen :7000 -k 2 -m 1 -osds 3 &
//	ecfsd -role osd -id 1 -listen :7001 -mds :7000 &
//	ecfsd -role osd -id 2 -listen :7002 -mds :7000 &
//	ecfsd -role osd -id 3 -listen :7003 -mds :7000 &
//	ecfscli -mds :7000 put file.bin
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/device"
	"repro/internal/ecfs"
	"repro/internal/erasure"
	"repro/internal/mdslog"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

func main() {
	var (
		role      = flag.String("role", "osd", "node role: mds | osd")
		id        = flag.Int("id", 1, "OSD node id (1..N); the MDS is node 0")
		listen    = flag.String("listen", ":7000", "listen address")
		advertise = flag.String("advertise", "", "address to report in heartbeats (defaults to the bound listen address)")
		mdsAddr   = flag.String("mds", "", "MDS address (OSD role); peer addresses are then resolved through the MDS address map")
		method    = flag.String("method", "tsue", "update method: "+strings.Join(update.AllMethods, ", "))
		k         = flag.Int("k", 6, "data blocks per stripe")
		m         = flag.Int("m", 4, "parity blocks per stripe")
		osds      = flag.Int("osds", 16, "cluster OSD count (MDS role)")
		block     = flag.Int("block", 1<<20, "block size in bytes")
		hdd       = flag.Bool("hdd", false, "use the HDD device profile")
		dataDir   = flag.String("data-dir", "", "OSD role: durable data directory (WAL-backed block store + on-disk log segments); empty keeps the OSD in memory. Reopening an existing directory recovers its contents (see docs/OPERATIONS.md)")
		mdsDir    = flag.String("mds-data-dir", "", "MDS role: durable metadata directory (namespace op log + snapshot); empty keeps the namespace in memory. Reopening an existing directory replays it to the pre-crash namespace (see docs/OPERATIONS.md)")
		addrTTL   = flag.Duration("addr-ttl", 10*time.Second, "MDS role: drop address-map entries for nodes that have not heartbeaten this long (the liveness timeout; 0 disables aging)")
	)
	flag.Parse()

	switch *role {
	case "mds":
		ids := make([]wire.NodeID, *osds)
		for i := range ids {
			ids[i] = wire.NodeID(i + 1)
		}
		var mds *ecfs.MDS
		var err error
		if *mdsDir != "" {
			// Durable namespace: every mutation is logged before it is
			// acknowledged, so a crash of this process loses nothing a
			// client was told succeeded.
			mds, err = ecfs.OpenDurableMDS(*mdsDir, ids, *k, *m, ecfs.DefaultMDSShards, mdslog.Options{})
		} else {
			mds, err = ecfs.NewMDS(ids, *k, *m)
		}
		if err != nil {
			fatal(err)
		}
		// Served to dialing clients over wire.KResolveAddr, so the
		// whole cluster configuration lives in one place.
		mds.SetBlockSize(*block)
		// Age the address map with liveness: clients re-resolving a
		// node that stopped heartbeating get "unknown" instead of the
		// last address of a dead process (heartbeats fire every 2s).
		mds.SetAddrTTL(*addrTTL)
		srv, err := transport.ServeTCP(wire.MDSNode, *listen, mds.Handler)
		if err != nil {
			fatal(err)
		}
		self := *advertise
		if self == "" {
			self = srv.Addr()
		}
		mds.RecordAddr(wire.MDSNode, self)
		durable := ""
		if *mdsDir != "" {
			durable = ", namespace in " + *mdsDir
		}
		fmt.Printf("ecfsd: mds serving RS(%d,%d) x %d B blocks for %d OSDs on %s%s\n", *k, *m, *block, *osds, srv.Addr(), durable)
		waitSignal()
		srv.Close()
		// Clean shutdown: for a durable MDS, checkpoint the op log
		// (snapshot the namespace, sync, truncate) so the next start
		// loads the snapshot instead of replaying — the MDS mirror of
		// the OSD -data-dir shutdown below.
		if err := mds.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ecfsd: mds close: %v\n", err)
		} else if *mdsDir != "" {
			fmt.Printf("ecfsd: mds checkpointed %s\n", *mdsDir)
		}
	case "osd":
		if *mdsAddr == "" {
			fatal(fmt.Errorf("OSD role needs the MDS address: pass -mds host:port"))
		}
		prof := device.ChameleonSSD()
		if *hdd {
			prof = device.Datacenter2TBHDD()
		}
		cfg := update.DefaultConfig()
		cfg.BlockSize = *block
		rpc := transport.NewTCPClient(map[wire.NodeID]string{wire.MDSNode: *mdsAddr})
		defer rpc.Close()
		// Peer addresses resolve through the MDS address map.
		rpc.SetResolver(ecfs.MDSResolver(rpc))
		osd, err := ecfs.NewOSDAt(wire.NodeID(*id), prof, rpc, *method, cfg, erasure.Vandermonde, *dataDir)
		if err != nil {
			fatal(err)
		}
		defer osd.Close()
		srv, err := transport.ServeTCP(wire.NodeID(*id), *listen, osd.Handler)
		if err != nil {
			fatal(err)
		}
		self := *advertise
		if self == "" {
			self = srv.Addr()
		}
		osd.SetListenAddr(self)
		// Announce immediately so the address map knows this node before
		// the first periodic heartbeat fires.
		if err := osd.Heartbeat(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "ecfsd: initial heartbeat: %v (will keep retrying)\n", err)
		}
		stop := make(chan struct{})
		osd.StartHeartbeats(2*time.Second, stop)
		durable := ""
		if *dataDir != "" {
			durable = ", data in " + *dataDir
		}
		fmt.Printf("ecfsd: osd %d (%s, %s) serving on %s, advertising %s%s\n", *id, *method, prof.Kind, srv.Addr(), self, durable)
		waitSignal()
		close(stop)
		srv.Close()
		// Clean shutdown: stop the strategy workers and, for a durable
		// OSD, checkpoint the storage engine (flush dirty pages, sync,
		// truncate the WAL) so the next start recovers instantly instead
		// of replaying. Close is idempotent; the deferred call is a no-op.
		osd.Close()
		if *dataDir != "" {
			fmt.Printf("ecfsd: osd %d checkpointed %s\n", *id, *dataDir)
		}
	default:
		fatal(fmt.Errorf("unknown role %q", *role))
	}
}

func waitSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	<-ch
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ecfsd: %v\n", err)
	os.Exit(1)
}
