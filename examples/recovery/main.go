// Recovery: exercise the failure path of the paper's §4.2. A client
// updates a TSUE volume; one OSD is killed while updates are still
// buffered in its DataLog; the parallel rebuild engine reconstructs the
// lost blocks from stripe survivors AND replays the dead node's replica
// log so that no acknowledged update is lost.
//
// The scenario then continues multi-failure, and the second round shows
// placement epochs at work: the second victim is NOT resurrected under
// its own node id. Instead a brand-new OSD joins the cluster under a
// fresh id, recovery rebuilds the lost blocks onto it and *rebinds*
// every affected stripe at the MDS under a bumped placement epoch. The
// client keeps using its stale cached placements throughout: reads to
// the moved blocks re-resolve when the dead node doesn't answer, and
// updates to surviving members are rejected with a structured
// stale-epoch reply and transparently retried against the fresh
// placement. The cluster is verified byte-for-byte against an in-memory
// mirror after each round.
//
// Round three needs no failure at all: the same repair machinery —
// per-stripe epoch bumps through the prioritized repair queue — runs as
// *planned* work. Cluster.Decommission drains a live node (each block
// copied straight from the node itself, no K-way decode) and retires it
// from the topology with zero downtime: the stale client keeps reading
// and updating throughout.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"

	tsue "repro"

	"repro/internal/ecfs"
	"repro/internal/wire"
)

func main() {
	ctx := context.Background()
	opts := tsue.DefaultOptions()
	opts.BlockSize = 64 << 10
	opts.RecoveryWorkers = 8
	cfg := tsue.DefaultStrategyConfig()
	cfg.UnitSize = 16 << 20 // large units: nothing recycles before the crash
	opts.Strategy = &cfg
	cluster := tsue.MustNewCluster(opts)
	defer cluster.Close()

	client := cluster.NewClient()
	f, err := client.Open(ctx, "vol")
	if err != nil {
		log.Fatal(err)
	}
	ino := f.Ino()
	fileSize := 2 * client.StripeSpan()
	mirror := make([]byte, fileSize)
	rng := rand.New(rand.NewSource(9))
	rng.Read(mirror)
	if _, err := f.WriteAt(mirror, 0); err != nil {
		log.Fatal(err)
	}

	update := func(n int) {
		for i := 0; i < n; i++ {
			off := int64(rng.Intn(fileSize - 256))
			data := make([]byte, 1+rng.Intn(256))
			rng.Read(data)
			if _, err := f.UpdateAt(ctx, off, data, 0); err != nil {
				log.Fatal(err)
			}
			copy(mirror[off:], data)
		}
		fmt.Printf("%d updates acknowledged; none recycled yet (units not full)\n", n)
	}
	verify := func() {
		got := make([]byte, fileSize)
		if _, err := f.ReadAt(got, 0); err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(got, mirror) {
			log.Fatal("data lost: post-recovery content does not match the mirror")
		}
		fmt.Println("post-recovery read matches the mirror: no acknowledged update was lost")
	}
	// A replacement node is built with the cluster's own configuration.
	newOSD := func(id wire.NodeID) *ecfs.OSD {
		repl, err := cluster.SpawnOSD(id)
		if err != nil {
			log.Fatal(err)
		}
		return repl
	}

	// Round 1 — classic drop-in replacement: kill an OSD, rebuild its
	// blocks with the parallel engine (8 workers, concurrent shard
	// fetches, fetch-error fallback) onto a replacement that reuses the
	// victim's node id, and reinstate it.
	update(200)
	loc, err := cluster.MDS.Lookup(ino, 0)
	if err != nil {
		log.Fatal(err)
	}
	victim := loc.Nodes[0]
	cluster.FailOSD(victim)
	fmt.Printf("OSD %d failed — its DataLog content is lost with it\n", victim)
	repl := newOSD(victim)
	res, err := cluster.Recover(ctx, victim, repl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered %d blocks (%d KiB) with %d workers at %.1f MB/s; %d KiB of pending updates replayed from replica logs\n",
		res.Blocks, res.Bytes>>10, res.Workers, res.Bandwidth/1e6, res.ReplayedBytes>>10)
	cluster.Reinstate(repl)
	verify()

	// Round 2 — multi-failure, rebuilt onto a DIFFERENT node: more
	// updates land, then the OSD holding a parity block of stripe 0
	// dies. This time no hardware with the victim's identity comes
	// back. A fresh OSD joins under a new node id, recovery rebuilds
	// the lost blocks onto it, and every affected placement is rebound
	// at the MDS under a bumped epoch.
	update(200)
	victim2 := loc.Nodes[len(loc.Nodes)-1]
	cluster.FailOSD(victim2)
	fmt.Printf("OSD %d failed — and this time its node id retires with it\n", victim2)
	freshID := wire.NodeID(opts.NumOSDs + 1)
	repl2 := newOSD(freshID)
	cluster.Reinstate(repl2) // joins the MDS placement pool under the fresh id
	res2, err := cluster.Recover(ctx, victim2, repl2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered %d blocks onto NEW node %d; %d placements rebound under bumped epochs\n",
		res2.Blocks, freshID, res2.Rebound)
	cur, err := cluster.MDS.Lookup(ino, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stripe 0 placement epoch %d -> %d; parity slot moved %d -> %d\n",
		loc.Epoch, cur.Epoch, victim2, cur.Nodes[len(cur.Nodes)-1])

	// The client still holds the pre-failure placements in its cache.
	// It is never told about the rebind: its next requests are either
	// rejected with wire.StatusStaleEpoch by epoch-aware survivors or
	// fail to reach the retired node, and both paths transparently
	// re-resolve at the MDS and retry.
	update(100)
	verify()
	fmt.Println("stale client re-resolved the rebound placements transparently — no cache flush, no victim-id reuse")

	// Round 3 — planned migration, zero downtime: the node now hosting
	// stripe 0's first data block is taken out of service while it is
	// perfectly healthy. Decommission drains it through the same repair
	// queue recovery uses, but sources every block from the node itself
	// (one fetch, no K-way decode), cuts each stripe over under a bumped
	// epoch, and finally retires the node from the topology.
	cur, err = cluster.MDS.Lookup(ino, 0)
	if err != nil {
		log.Fatal(err)
	}
	retiree := cur.Nodes[0]
	fmt.Printf("decommissioning healthy OSD %d — no failure, no decode, no downtime\n", retiree)
	res3, err := cluster.Decommission(ctx, retiree)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("drained %d blocks (%d KiB) onto the survivor pool at %.1f MB/s; %d placements rebound; node %d retired\n",
		res3.Moved, res3.Bytes>>10, res3.Bandwidth/1e6, res3.Rebound, retiree)

	// The client still caches placements naming the retired node; its
	// next operations re-resolve exactly like after a failure — except
	// nothing was ever down.
	update(100)
	verify()
	fmt.Println("planned migration complete: same epochs, same queue, zero failed operations")
}
