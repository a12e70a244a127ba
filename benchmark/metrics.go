package main

import (
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/device"
	"repro/internal/logpool"
	"repro/internal/store"
	"repro/internal/wire"
)

// metricDef names one metric the benchmark prints. BENCHMARK.json lists
// the same names and units (bench_test.go checks that it does).
type metricDef struct {
	name, unit string
}

// End-to-end metrics, measured with tracing off. Every workload reports
// every one of them; README.md says what each means on each workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"settled_ops_per_s", "1/s"},
	{"update_p50_us", "us"},
	{"read_p50_us", "us"},
	{"write_MBps", "MB/s"},
	{"read_MBps", "MB/s"},
	{"degraded_read_MBps", "MB/s"},
}

// Per-layer metrics, reported by a traced run. A metric whose layer a
// workload does not exercise reads 0 there.
var perLayerDefs = []metricDef{
	{"client.update_self_us", "us"},
	{"client.read_self_us", "us"},
	{"client.write_self_us_per_MiB", "us/MiB"},
	{"client.mds_calls_per_op", "count"},
	{"client.update_p99_us", "us"},
	{"client.read_p99_us", "us"},
	{"transport.update_overhead_us", "us"},
	{"transport.read_overhead_us", "us"},
	{"transport.write_overhead_us_per_MiB", "us/MiB"},
	{"transport.flushes_per_call", "count"},
	{"transport.peer_bytes_per_user_byte", "B/B"},
	{"transport.null_rtt_4k_us", "us"},
	{"transport.null_256k_MBps", "MB/s"},
	{"wire.update_4k_codec_ns", "ns"},
	{"osd.update_handler_us", "us"},
	{"osd.update_handler_p99_us", "us"},
	{"osd.update_self_us", "us"},
	{"osd.replica_rtt_us", "us"},
	{"osd.parity_fwd_rtt_us", "us"},
	{"osd.read_handler_us", "us"},
	{"osd.write_handler_us_per_MiB", "us/MiB"},
	{"osd.fg_busy_s", "s"},
	{"osd.stage2_busy_s", "s"},
	{"mds.calls", "count"},
	{"mds.handler_us", "us"},
	{"update.drain_s", "s"},
	{"logpool.data.merge_ratio", "B/B"},
	{"logpool.delta.merge_ratio", "B/B"},
	{"logpool.parity.merge_ratio", "B/B"},
	{"logpool.data.stalls", "count"},
	{"logpool.delta.stalls", "count"},
	{"logpool.parity.stalls", "count"},
	{"logpool.data.cache_hit_share", "share"},
	{"logpool.units_recycled", "count"},
	{"logpool.append_4k_ns", "ns"},
	{"store.wal_bytes_per_user_byte", "B/B"},
	{"store.seg_bytes_per_user_byte", "B/B"},
	{"store.page_hit_share", "share"},
	{"store.wal_syncs", "count"},
	{"store.checkpoints", "count"},
	{"store.compacted_bytes", "B"},
	{"store.reopen_s", "s"},
	{"store.disk_bytes_per_file_byte", "B/B"},
	{"store.write_range_4k_us", "us"},
	{"store.read_range_4k_warm_us", "us"},
	{"mdslog.records", "count"},
	{"mdslog.bytes", "B"},
	{"mdslog.syncs", "count"},
	{"mdslog.reopen_s", "s"},
	{"mdslog.append_us", "us"},
	{"device.write_bytes_per_user_byte", "B/B"},
	{"device.read_bytes_per_user_byte", "B/B"},
	{"device.random_op_share", "share"},
	{"device.overwrites_per_update", "count"},
	{"device.erase_ops", "count"},
	{"erasure.encode_MBps", "MB/s"},
	{"erasure.parity_delta_4k_ns", "ns"},
	{"erasure.reconstruct_MBps", "MB/s"},
	{"proc.peak_rss_MiB", "MiB"},
	{"proc.allocs_per_op", "count"},
	{"trace.overhead_share", "share"},
	{"trace.self_sum_share", "share"},
	{"trace.unmatched_handler_share", "share"},
	{"trace.spans", "count"},
	{"samples.update", "count"},
	{"samples.read", "count"},
	{"samples.degraded_read", "count"},
}

// foreground returns the phases that carry the workload's updates (or
// writes) and its reads: the replay for a trace, the write and the read
// phase for the sequential workload.
func (o *outcome) foreground() (upd, rd *phase) {
	if o.main != nil {
		return o.main, o.main
	}
	return o.write, o.read
}

// endToEnd derives the end-to-end metrics of one pass.
func endToEnd(o *outcome) map[string]float64 {
	upd, rd := o.foreground()
	ops, wall := upd.ops, upd.wall
	if rd != upd {
		ops, wall = ops+rd.ops, wall+rd.wall
	}
	setups := make([]float64, len(o.setup))
	for i, d := range o.setup {
		setups[i] = d.Seconds()
	}
	return map[string]float64{
		"setup_s":            median(setups),
		"ops_per_s":          float64(ops) / wall.Seconds(),
		"settled_ops_per_s":  float64(ops) / (wall + o.drain).Seconds(),
		"update_p50_us":      percentileUs(upd.lat[classWrite], 0.5),
		"read_p50_us":        percentileUs(rd.lat[classRead], 0.5),
		"write_MBps":         upd.mbps(classWrite),
		"read_MBps":          rd.mbps(classRead),
		"degraded_read_MBps": o.degraded.mbps(classRead),
	}
}

// counters are the program's own exported counters, summed over nodes.
type counters struct {
	layers  map[string]logpool.Stats
	store   store.Stats
	dev     device.Stats
	mdsRecs int64
	mdsByts int64
	mdsSync int64
	flushes int64 // writev flushes of the client's connection pool
}

func (s *session) collect() *counters {
	c := &counters{layers: make(map[string]logpool.Stats)}
	for _, n := range s.c.nodes {
		if ls, ok := n.osd.Strategy().(interface {
			LayerStats() map[string]logpool.Stats
		}); ok {
			for name, st := range ls.LayerStats() {
				sum := c.layers[name]
				sum.AppendedBytes += st.AppendedBytes
				sum.RecycledBytes += st.RecycledBytes
				sum.UnitsRecycled += st.UnitsRecycled
				sum.Stalls += st.Stalls
				sum.CacheHits += st.CacheHits
				sum.CacheMisses += st.CacheMisses
				c.layers[name] = sum
			}
		}
		if e := n.osd.Engine(); e != nil {
			st := e.Stats()
			c.store.PageHits += st.PageHits
			c.store.PageMisses += st.PageMisses
			c.store.WALBytes += st.WALBytes
			c.store.WALSyncs += st.WALSyncs
			c.store.SegBytes += st.SegBytes
			c.store.Checkpoints += st.Checkpoints
			c.store.CompactedBytes += st.CompactedBytes
		}
		c.dev = c.dev.Add(n.osd.Dev().Stats())
	}
	c.flushes = s.clientFlushes()
	if l := s.c.mds.Log(); l != nil {
		c.mdsRecs, c.mdsByts, c.mdsSync = l.Stats()
	}
	return c
}

// clientFlushes is how many writev flushes the client's connection pool
// has issued so far, to every node.
func (s *session) clientFlushes() int64 {
	n := s.pool.DestFlushes(wire.MDSNode)
	for _, node := range s.c.nodes {
		n += s.pool.DestFlushes(node.id)
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives the per-layer metrics of a traced pass. refOps is the
// ops_per_s of the untraced reference pass run just before it.
func perLayer(o *outcome, t *tracer, refOps float64, probes map[string]float64) map[string]float64 {
	m := make(map[string]float64, len(perLayerDefs))
	for k, v := range probes {
		m[k] = v
	}
	upd, rd := o.foreground()
	userWrite := float64(upd.bytes[classWrite]) // update payload or written file bytes
	userBytes := userWrite + float64(rd.bytes[classRead])

	t.analyze(m, userWrite/(1<<20))

	c := o.counters
	m["transport.flushes_per_call"] = ratio(float64(c.flushes), float64(t.clientCalls.Load()))
	m["transport.peer_bytes_per_user_byte"] = ratio(float64(t.peerBytes.Load()), userWrite)
	m["mds.calls"] = float64(t.mdsCalls.Load())
	m["mds.handler_us"] = ratio(float64(t.mdsNanos.Load())/1e3, float64(t.mdsCalls.Load()))
	m["update.drain_s"] = o.drain.Seconds()
	var units int64
	for _, name := range []string{"data", "delta", "parity"} {
		st := c.layers[name]
		m["logpool."+name+".merge_ratio"] = ratio(float64(st.RecycledBytes), float64(st.AppendedBytes))
		m["logpool."+name+".stalls"] = float64(st.Stalls)
		units += st.UnitsRecycled
	}
	d := c.layers["data"]
	m["logpool.data.cache_hit_share"] = ratio(float64(d.CacheHits), float64(d.CacheHits+d.CacheMisses))
	m["logpool.units_recycled"] = float64(units)

	m["store.wal_bytes_per_user_byte"] = ratio(float64(c.store.WALBytes), userWrite)
	m["store.seg_bytes_per_user_byte"] = ratio(float64(c.store.SegBytes), userWrite)
	m["store.page_hit_share"] = ratio(float64(c.store.PageHits), float64(c.store.PageHits+c.store.PageMisses))
	m["store.wal_syncs"] = float64(c.store.WALSyncs)
	m["store.checkpoints"] = float64(c.store.Checkpoints)
	m["store.compacted_bytes"] = float64(c.store.CompactedBytes)
	m["store.reopen_s"] = o.storeOpen.Seconds()
	m["store.disk_bytes_per_file_byte"] = ratio(float64(o.diskBytes), float64(o.fileSize))
	m["mdslog.records"] = float64(c.mdsRecs)
	m["mdslog.bytes"] = float64(c.mdsByts)
	m["mdslog.syncs"] = float64(c.mdsSync)
	m["mdslog.reopen_s"] = o.mdsOpen.Seconds()

	// The priced device model: what the paper's lifespan claim counts.
	m["device.write_bytes_per_user_byte"] = ratio(float64(c.dev.WriteBytes), userBytes)
	m["device.read_bytes_per_user_byte"] = ratio(float64(c.dev.ReadBytes), userBytes)
	m["device.random_op_share"] = ratio(float64(c.dev.RandomOps), float64(c.dev.RandomOps+c.dev.SeqOps))
	m["device.overwrites_per_update"] = ratio(float64(c.dev.Overwrites), float64(len(upd.lat[classWrite])))
	m["device.erase_ops"] = float64(c.dev.EraseOps)

	var ops int64
	for _, p := range o.phases() {
		ops += p.ops
	}
	m["proc.peak_rss_MiB"] = peakRSSMiB()
	m["proc.allocs_per_op"] = ratio(float64(o.allocs), float64(ops))
	traced := endToEnd(o)["ops_per_s"]
	m["trace.overhead_share"] = ratio(refOps-traced, refOps)
	m["client.update_p99_us"] = percentileUs(upd.lat[classWrite], 0.99)
	m["client.read_p99_us"] = percentileUs(rd.lat[classRead], 0.99)
	m["samples.update"] = float64(len(upd.lat[classWrite]))
	m["samples.read"] = float64(len(rd.lat[classRead]))
	m["samples.degraded_read"] = float64(len(o.degraded.lat[classRead]))
	return m
}

// analyze fills in the metrics that come from spans. writeMiB is the
// user data written or updated, for the per-MiB metrics.
func (t *tracer) analyze(m map[string]float64, writeMiB float64) {
	unmatched := t.link()
	kids := t.children()

	type agg struct{ sum, n float64 }
	add := func(a *agg, ns int64) { a.sum += float64(ns) / 1e3; a.n++ }
	mean := func(a agg) float64 { return ratio(a.sum, a.n) }
	var (
		opSelf, callSelf, handler, peer = map[wire.Kind]*agg{}, map[wire.Kind]*agg{}, map[wire.Kind]*agg{}, map[wire.Kind]*agg{}
		updSelf                         agg
		updHandler                      []int64
		mdsCalls, ops, handlers         float64
		selfSum, opSum                  float64
	)
	at := func(m map[wire.Kind]*agg, k wire.Kind) *agg {
		if m[k] == nil {
			m[k] = &agg{}
		}
		return m[k]
	}
	// underOp reports whether a span belongs to a client operation's
	// tree (as opposed to stage 2's). Trees are at most five deep.
	underOp := func(id int32) bool {
		for ; id != 0; id = t.spans[id-1].parent {
			if t.spans[id-1].name == spanOp {
				return true
			}
		}
		return false
	}
	for i := range t.spans {
		id := int32(i + 1)
		s := &t.spans[i]
		if s.end == 0 || s.name == spanStage2 {
			continue
		}
		dur := s.end - s.start
		self := t.selfTime(id, kids[id])
		if underOp(id) {
			selfSum += float64(self)
		}
		switch s.name {
		case spanOp:
			ops++
			opSum += float64(dur)
			add(at(opSelf, s.kind), self)
			for _, k := range kids[id] {
				if c := t.spans[k-1]; c.name == spanClientCall && (c.kind == wire.KMDSLookup || c.kind == wire.KMDSCreate || c.kind == wire.KMDSStat || c.kind == wire.KRepairHint) {
					mdsCalls++
				}
			}
		case spanClientCall:
			add(at(callSelf, s.kind), self)
		case spanOSDHandler:
			handlers++
			add(at(handler, s.kind), dur)
			if s.kind == wire.KUpdate {
				add(&updSelf, self)
				updHandler = append(updHandler, dur)
			}
		case spanPeerCall:
			add(at(peer, s.kind), dur)
		}
	}
	sort.Slice(updHandler, func(i, j int) bool { return updHandler[i] < updHandler[j] })

	m["client.update_self_us"] = mean(*at(opSelf, opUpdate))
	m["client.read_self_us"] = mean(*at(opSelf, opRead))
	m["client.write_self_us_per_MiB"] = ratio(at(opSelf, opWrite).sum, writeMiB)
	m["client.mds_calls_per_op"] = ratio(mdsCalls, ops)
	m["transport.update_overhead_us"] = mean(*at(callSelf, wire.KUpdate))
	m["transport.read_overhead_us"] = mean(*at(callSelf, wire.KRead))
	m["transport.write_overhead_us_per_MiB"] = ratio(at(callSelf, wire.KWriteBlock).sum, writeMiB)
	m["osd.update_handler_us"] = mean(*at(handler, wire.KUpdate))
	m["osd.update_handler_p99_us"] = percentileUs(updHandler, 0.99)
	m["osd.update_self_us"] = mean(updSelf)
	m["osd.replica_rtt_us"] = mean(*at(peer, wire.KDataLogReplica))
	m["osd.parity_fwd_rtt_us"] = mean(*at(peer, wire.KParityDelta))
	m["osd.read_handler_us"] = mean(*at(handler, wire.KRead))
	m["osd.write_handler_us_per_MiB"] = ratio(at(handler, wire.KWriteBlock).sum, writeMiB)
	m["osd.fg_busy_s"] = (at(handler, wire.KUpdate).sum + at(handler, wire.KRead).sum + at(handler, wire.KWriteBlock).sum) / 1e6
	m["osd.stage2_busy_s"] = (at(handler, wire.KDeltaLogAdd).sum + at(handler, wire.KParityLogAdd).sum) / 1e6
	m["trace.self_sum_share"] = ratio(selfSum, opSum)
	m["trace.unmatched_handler_share"] = ratio(float64(unmatched), handlers)
	m["trace.spans"] = float64(len(t.spans))
}

// peakRSSMiB reads the process's resident high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
