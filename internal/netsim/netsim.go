// Package netsim models the cluster interconnect: per-node NICs with
// finite bandwidth and per-message latency, plus cluster-wide traffic
// accounting (the NETWORK TRAFFIC column of the paper's Table 1).
//
// Like internal/device, netsim does not move bytes — transport delivers
// real messages in-process or over TCP — it prices them: a message of S
// bytes costs baseLatency + S/bandwidth, charged to both the sender's and
// the receiver's NIC resource, and S is added once to the cluster traffic
// counter.
package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Profile describes a network class.
type Profile struct {
	Bandwidth   float64       // bytes/second per NIC
	BaseLatency time.Duration // per-message one-way latency
}

// Ethernet25G matches the paper's SSD testbed: 25 Gb/s Ethernet with
// tens-of-microseconds one-way latency.
func Ethernet25G() Profile {
	return Profile{Bandwidth: 25e9 / 8, BaseLatency: 25 * time.Microsecond}
}

// Infiniband40G matches the HDD testbed (§5.4): 40 Gb/s InfiniBand.
func Infiniband40G() Profile {
	return Profile{Bandwidth: 40e9 / 8, BaseLatency: 5 * time.Microsecond}
}

// NIC is one node's network interface.
type NIC struct {
	name      string
	prof      Profile
	res       *sim.Resource
	sent      atomic.Int64
	rcvd      atomic.Int64
	sentClass [sim.NumClasses]atomic.Int64
}

// Resource exposes the NIC's busy-time accounting.
func (n *NIC) Resource() *sim.Resource { return n.res }

// Name returns the NIC name.
func (n *NIC) Name() string { return n.name }

// SentBytes returns the bytes sent from this NIC.
func (n *NIC) SentBytes() int64 { return n.sent.Load() }

// ReceivedBytes returns the bytes received by this NIC.
func (n *NIC) ReceivedBytes() int64 { return n.rcvd.Load() }

// SentBytesClass returns the bytes sent from this NIC under one traffic
// class.
func (n *NIC) SentBytesClass(c sim.Class) int64 {
	if c >= sim.NumClasses {
		return 0
	}
	return n.sentClass[c].Load()
}

// Network groups the NICs of a cluster and tracks total traffic, both
// in aggregate and split per traffic class. NIC registration is safe
// against concurrent readers: clients are provisioned lazily on their
// first call, which can race a repair engine snapshotting Resources.
type Network struct {
	prof         Profile
	mu           sync.RWMutex
	nics         []*NIC
	traffic      atomic.Int64
	trafficClass [sim.NumClasses]atomic.Int64
}

// New creates a network with the given profile.
func New(p Profile) *Network {
	if p.Bandwidth <= 0 {
		panic("netsim: non-positive bandwidth")
	}
	return &Network{prof: p}
}

// AddNIC registers and returns a NIC for a node.
func (nw *Network) AddNIC(name string) *NIC {
	n := &NIC{name: name, prof: nw.prof, res: sim.NewResource(fmt.Sprintf("nic/%s", name))}
	nw.mu.Lock()
	nw.nics = append(nw.nics, n)
	nw.mu.Unlock()
	return n
}

// NICs returns a snapshot of the registered NICs.
func (nw *Network) NICs() []*NIC {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	return append([]*NIC(nil), nw.nics...)
}

// TotalTraffic returns the bytes transferred across the network.
func (nw *Network) TotalTraffic() int64 { return nw.traffic.Load() }

// TrafficByClass returns the bytes transferred across the network under
// one traffic class. The per-class counters always sum to TotalTraffic.
func (nw *Network) TrafficByClass(c sim.Class) int64 {
	if c >= sim.NumClasses {
		return 0
	}
	return nw.trafficClass[c].Load()
}

// Reset clears traffic (all classes) and all NIC accounting.
func (nw *Network) Reset() {
	nw.traffic.Store(0)
	for i := range nw.trafficClass {
		nw.trafficClass[i].Store(0)
	}
	for _, n := range nw.NICs() {
		n.res.Reset()
		n.sent.Store(0)
		n.rcvd.Store(0)
		for i := range n.sentClass {
			n.sentClass[i].Store(0)
		}
	}
}

// perMessageCPU is the NIC/stack occupancy per message beyond the wire
// transfer itself (interrupt + protocol processing).
const perMessageCPU = 2 * time.Microsecond

// Transfer prices a message of size bytes from src to dst under a
// traffic class and returns its one-way latency. The propagation/base
// latency contributes to latency only; NIC *occupancy* is the
// serialization time plus a small per-message processing cost, so
// pipelined messages overlap like they do on a real link. Loopback
// (src == dst) is free and uncounted, matching how the paper accounts
// only inter-node traffic. The class splits both the NIC busy time and
// the sender/cluster byte counters, which is what lets the repair bench
// report rebuild and foreground bandwidth separately over one shared
// network.
func (nw *Network) Transfer(class sim.Class, src, dst *NIC, size int64) time.Duration {
	if size < 0 {
		panic("netsim: negative transfer size")
	}
	if class >= sim.NumClasses {
		class = sim.ClassOther
	}
	if src == dst {
		return 0
	}
	wire := time.Duration(float64(size) / nw.prof.Bandwidth * float64(time.Second))
	busy := wire + perMessageCPU
	src.res.Charge(class, busy)
	dst.res.Charge(class, busy)
	src.sent.Add(size)
	src.sentClass[class].Add(size)
	dst.rcvd.Add(size)
	nw.traffic.Add(size)
	nw.trafficClass[class].Add(size)
	return nw.prof.BaseLatency + wire
}

// Resources returns the sim.Resources of every NIC at this instant, for
// bottleneck search.
func (nw *Network) Resources() []*sim.Resource {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	out := make([]*sim.Resource, len(nw.nics))
	for i, n := range nw.nics {
		out[i] = n.res
	}
	return out
}
