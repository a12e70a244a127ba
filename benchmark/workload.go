package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/ecfs"
	"repro/internal/erasure"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// workload is one set of inputs. A trace workload replays gen's ops from
// two closed-loop clients; the sequential workload (gen == nil) streams
// whole files. Either runs for options.seconds, or, with no time limit
// (-quick, the tests), until its op budget is used.
type workload struct {
	name    string
	method  string
	durable bool
	gen     func(fileSize int64, ops int, seed int64) *trace.Trace
	// ops is the trace length. It is several times what the parent commit
	// consumes in run_seconds, so the clock ends the run, not the trace.
	ops int
}

var workloads = []workload{
	{name: "ali-tsue-mem", method: "tsue", gen: trace.AliCloud, ops: 150_000},
	{name: "ali-fo-mem", method: "fo", gen: trace.AliCloud, ops: 150_000},
	{name: "ten-tsue-durable", method: "tsue", durable: true, gen: trace.TenCloud, ops: 300_000},
	{name: "seq-write-read", method: "tsue"},
}

// Op budgets of the sequential workload's phases, in passes over both
// files (see workload.ops for why they are generous).
const (
	seqWritePasses = 50
	seqReadPasses  = 200
	degradedPasses = 50 // the degraded read phase, of every workload
)

// Shares of options.seconds each timed phase gets.
const (
	traceMainShare = 0.8 // the rest is the degraded read phase
	seqWriteShare  = 0.4
	seqReadShare   = 0.4 // the rest is the degraded read phase
)

const (
	clients    = 2              // closed-loop client goroutines sharing one client
	readChunk  = blockSize      // sequential reads are 1 MiB
	writeChunk = 4 * stripeSpan // sequential writes are 4 stripes
	sector     = 512            // offset and size grain of the traces
)

type options struct {
	seed     int64
	seconds  float64 // 0: no time limit, the op budget ends each phase
	quick    bool    // op budgets / 50, small files
	traced   bool
	dataRoot string // parent directory for durable clusters
	setups   int    // how many times to set up; the median is reported
	traceOut string // where a traced run writes its spans
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// session is one stood-up deployment with a client on it.
type session struct {
	w    workload
	o    options
	tr   *tracer
	c    *cluster
	pool *transport.TCPClient // the client's connection pool
	fs   []*ecfs.File
	root string // this session's data root ("" in memory)

	// What the files should hold. image is what set-up wrote. A trace
	// workload keeps a mirror per client of what it updated since; the
	// sequential workload the two file patterns and which of them each
	// client last wrote to each writeChunk of its file.
	image   []byte
	mirrors []*mirror
	seqPat  [2][]byte
	seqLast [clients][]int
}

// dial builds the client. Untraced, that is ecfs.Dial. Traced, it is
// the same construction with the connection pool wrapped, so every call
// the client makes opens a span.
func dial(ctx context.Context, mdsAddr string, tr *tracer) (*ecfs.Client, *transport.TCPClient, error) {
	if tr == nil {
		rc, err := ecfs.Dial(ctx, mdsAddr)
		if err != nil {
			return nil, nil, err
		}
		return rc.Client, rc.Transport(), nil
	}
	pool := transport.NewTCPClient(map[wire.NodeID]string{wire.MDSNode: mdsAddr})
	addrs, err := resolver(pool)(ctx)
	if err != nil {
		pool.Close()
		return nil, nil, fmt.Errorf("dial %s: %w", mdsAddr, err)
	}
	pool.UpdateAddrs(addrs)
	pool.SetResolver(resolver(pool))
	code, err := erasure.New(geomK, geomM, erasure.Vandermonde)
	if err != nil {
		pool.Close()
		return nil, nil, err
	}
	rpc := tr.rpc(spanClientCall, wire.ClientIDBase, pool)
	return ecfs.NewClient(wire.ClientIDBase, rpc, code, blockSize), pool, nil
}

// fileNames are the files a workload works on: one volume for a trace,
// one file per client for the sequential workload.
func (w workload) fileNames() []string {
	if w.gen != nil {
		return []string{"vol"}
	}
	return []string{"seq0", "seq1"}
}

// open stands the deployment up (or reopens s.root) and opens the files.
func (s *session) open(ctx context.Context) error {
	var err error
	s.c, err = startCluster(ctx, clusterSpec{method: s.w.method, dataRoot: s.root}, s.tr)
	if err != nil {
		return err
	}
	var cli *ecfs.Client
	cli, s.pool, err = dial(ctx, s.c.mdsAddr, s.tr)
	if err != nil {
		return err
	}
	s.fs = s.fs[:0]
	for _, name := range s.w.fileNames() {
		f, err := cli.Open(ctx, name)
		if err != nil {
			return err
		}
		s.fs = append(s.fs, f)
	}
	return nil
}

// close tears the deployment down; crash selects process-kill semantics.
func (s *session) close(crash bool) {
	if s.pool != nil {
		s.pool.Close()
		s.pool = nil
	}
	if s.c != nil {
		s.c.shutdown(crash)
		s.c = nil
	}
}

// setUp stands up a fresh deployment and prepopulates its files with
// s.image, in writeChunk pieces; that is what setup_s times.
func (s *session) setUp(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	if s.w.durable {
		root, err := os.MkdirTemp(s.o.dataRoot, "cluster-")
		if err != nil {
			return 0, err
		}
		s.root = root
	}
	if err := s.open(ctx); err != nil {
		return 0, err
	}
	for _, f := range s.fs {
		for off := 0; off < len(s.image); off += writeChunk {
			if _, err := f.WriteAt(s.image[off:off+writeChunk], int64(off)); err != nil {
				return 0, fmt.Errorf("prepopulate %s: %w", f.Name(), err)
			}
		}
	}
	return time.Since(t0), nil
}

// tearDown ends the deployment and removes its data root. Nothing is
// checkpointed first: the data is about to be deleted.
func (s *session) tearDown() {
	s.close(true)
	if s.root != "" {
		os.RemoveAll(s.root)
		s.root = ""
	}
}

// mirror is what one client last wrote where, at sector grain.
type mirror struct {
	data    []byte
	touched []bool
}

func newMirror(fileSize int) *mirror {
	return &mirror{data: make([]byte, fileSize), touched: make([]bool, fileSize/sector)}
}

func (m *mirror) write(off int64, p []byte) {
	copy(m.data[off:], p)
	for s := off / sector; s < (off+int64(len(p)))/sector; s++ {
		m.touched[s] = true
	}
}

// checkImage reads the whole file back in readChunk pieces and checks
// every sector against the initial image or the last payload either
// client wrote there. Two clients racing on one sector leave either
// one's payload, never anything else.
func checkImage(f *ecfs.File, image []byte, mirrors []*mirror) error {
	buf := make([]byte, readChunk)
	for off := 0; off < len(image); off += readChunk {
		if _, err := f.ReadAt(buf, int64(off)); err != nil {
			return fmt.Errorf("read-back at %d: %w", off, err)
		}
	sectors:
		for s := off / sector; s < (off+readChunk)/sector; s++ {
			lo := s * sector
			got := buf[lo-off : lo-off+sector]
			untouched := true
			for _, m := range mirrors {
				if m.touched[s] {
					untouched = false
					if bytes.Equal(got, m.data[lo:lo+sector]) {
						continue sectors
					}
				}
			}
			if untouched && bytes.Equal(got, image[lo:lo+sector]) {
				continue
			}
			return fmt.Errorf("read-back of %s: sector at byte %d holds neither the initial pattern nor a client's last payload", f.Name(), lo)
		}
	}
	return nil
}

// op is one client operation of a timed phase.
type op struct {
	kind  wire.Kind // opUpdate, opWrite, opRead or opDegradedRead
	bytes int       // user payload
	do    func(ctx context.Context) error
	after func() // run on success, outside the op's timing; may be nil
}

// Latencies and bytes are kept by class.
const (
	classWrite = 0 // updates and writes
	classRead  = 1
)

// phase is one timed region driven by both clients.
type phase struct {
	wall     time.Duration
	ops      int64
	failed   int64
	bytes    [2]int64   // user payload bytes by class
	lat      [2][]int64 // per-op latency in ns by class, sorted
	firstErr error
}

// runPhase has each client execute next(client, 0), next(client, 1), ...
// one after the other, until next says the client's work is used up or
// the time limit passes (0: no limit). Each op is timed around its do
// call alone, and is one op span when tracing.
func (s *session) runPhase(ctx context.Context, limit time.Duration, next func(client, i int) (op, bool)) *phase {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		out = &phase{}
	)
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local phase
			for i := 0; limit == 0 || time.Since(t0) < limit; i++ {
				o, ok := next(c, i)
				if !ok {
					break
				}
				octx, id := s.tr.beginOp(ctx, o.kind)
				start := time.Now()
				err := o.do(octx)
				lat := time.Since(start)
				s.tr.end(id, int64(o.bytes))
				local.ops++
				if err != nil {
					local.failed++
					if local.firstErr == nil {
						local.firstErr = err
					}
					continue
				}
				if o.after != nil {
					o.after()
				}
				class := classRead
				if o.kind == opUpdate || o.kind == opWrite {
					class = classWrite
				}
				local.bytes[class] += int64(o.bytes)
				local.lat[class] = append(local.lat[class], int64(lat))
			}
			mu.Lock()
			defer mu.Unlock()
			out.ops += local.ops
			out.failed += local.failed
			for k := range local.bytes {
				out.bytes[k] += local.bytes[k]
				out.lat[k] = append(out.lat[k], local.lat[k]...)
			}
			if out.firstErr == nil {
				out.firstErr = local.firstErr
			}
		}(c)
	}
	wg.Wait()
	out.wall = time.Since(t0)
	for k := range out.lat {
		sort.Slice(out.lat[k], func(i, j int) bool { return out.lat[k][i] < out.lat[k][j] })
	}
	return out
}

func (p *phase) mbps(class int) float64 { return mbps(p.bytes[class], p.wall) }

// percentileUs picks a percentile of sorted nanosecond samples, in
// microseconds.
func percentileUs(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[min(len(sorted)-1, int(p*float64(len(sorted))))]) / 1e3
}

// fileSize is the size of each file: 96 MiB, or one writeChunk for
// -quick, whose fixed costs (prepopulation, mirrors, read-backs) would
// otherwise outweigh its few ops.
func (o options) fileSize() int {
	if o.quick {
		return writeChunk
	}
	return 96 << 20
}

// limitOf is a phase's time limit: its share of the run's seconds.
func (o options) limitOf(share float64) time.Duration {
	return time.Duration(o.seconds * share * float64(time.Second))
}

// budget scales an op budget for -quick.
func (o options) budget(n int) int {
	if o.quick {
		return max(1, n/50)
	}
	return n
}

// readPhase reads the files sequentially in readChunk pieces for up to
// passes passes over them. With one file the clients start half a file
// apart; with a file per client each reads its own.
func (s *session) readPhase(ctx context.Context, kind wire.Kind, limit time.Duration, passes int) *phase {
	perFile := s.o.fileSize() / readChunk
	total := passes * perFile * len(s.fs) / clients
	var bufs [clients][]byte
	for c := range bufs {
		bufs[c] = make([]byte, readChunk)
	}
	return s.runPhase(ctx, limit, func(c, i int) (op, bool) {
		f, chunk := s.fs[c%len(s.fs)], i
		if len(s.fs) == 1 {
			chunk += c * perFile / clients
		}
		return op{kind: kind, bytes: readChunk, do: func(ctx context.Context) error {
			_, err := f.WithContext(ctx).ReadAt(bufs[c], int64(chunk%perFile)*readChunk)
			return err
		}}, i < total
	})
}

// outcome is everything one pass over a workload measured.
type outcome struct {
	fileSize  int
	setup     []time.Duration
	main      *phase // trace: the replay. sequential: nil
	write     *phase // sequential only
	read      *phase // sequential only
	degraded  *phase
	drain     time.Duration // last ack until every log layer is empty
	diskBytes int64         // under the data root after the drain
	allocs    uint64        // heap allocations during the timed phases
	counters  *counters     // the program's counters after the drain (traced runs)
	storeOpen time.Duration // crash-restart: OSD data directories reopened
	mdsOpen   time.Duration // crash-restart: namespace reopened
	checkErr  error         // the first failure of the correctness gate
}

func (o *outcome) phases() []*phase {
	var out []*phase
	for _, p := range []*phase{o.main, o.write, o.read, o.degraded} {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// run executes one pass over the workload: set up, the timed phases, the
// drain, the correctness gate, and for a durable workload the
// crash-restart.
func run(ctx context.Context, w workload, o options) (*outcome, *tracer, error) {
	s := &session{w: w, o: o}
	if o.traced {
		s.tr = newTracer()
	}
	defer func() { s.tearDown() }()
	out := &outcome{fileSize: o.fileSize()}
	gate := func(stage string) {
		if out.checkErr == nil {
			out.checkErr = s.check(stage)
		}
	}

	if w.gen != nil {
		s.image = bytes.Repeat(trace.PrepareChunk(stripeSpan), o.fileSize()/stripeSpan)
	} else {
		s.image = seqImage(o.seed, 0, o.fileSize())
	}
	for i := 0; i < o.setups; i++ {
		if i > 0 {
			s.tearDown()
		}
		d, err := s.setUp(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		out.setup = append(out.setup, d)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	flushes0 := s.clientFlushes()
	s.tr.start()
	var err error
	if w.gen != nil {
		err = s.replay(ctx, out)
	} else {
		err = s.stream(ctx, out, gate)
	}
	if err != nil {
		return nil, nil, err
	}
	s.tr.pause()
	runtime.ReadMemStats(&ms1)
	out.allocs = ms1.Mallocs - ms0.Mallocs
	if s.tr != nil {
		// Before the correctness gate's reads move the counters.
		out.counters = s.collect()
		out.counters.flushes -= flushes0
	}

	// Healthy, then with one data-holding OSD gone: the degraded
	// read-back only matches if stage 2 folded every update into parity.
	gate("after the drain")
	loc, err := s.c.mds.Lookup(s.fs[0].Ino(), 0)
	if err != nil {
		return nil, nil, err
	}
	s.c.stopOSD(loc.Nodes[0])
	gate("degraded")
	share := 1 - traceMainShare
	if w.gen == nil {
		share = 1 - seqWriteShare - seqReadShare
	}
	s.tr.resume()
	out.degraded = s.readPhase(ctx, opDegradedRead, o.limitOf(share), o.budget(degradedPasses))
	s.tr.stop()

	if w.durable {
		// Process-kill semantics: no checkpoint, the directories keep
		// what write(2) saw (the operating system's cache survives).
		s.close(true)
		if err := s.open(ctx); err != nil {
			return nil, nil, fmt.Errorf("reopen after crash: %w", err)
		}
		out.storeOpen, out.mdsOpen = s.c.osdOpen, s.c.mdsOpen
		gate("after crash-restart")
	}
	return out, s.tr, nil
}

// check is the correctness gate: every file read back in full and
// compared with what the clients wrote.
func (s *session) check(stage string) error {
	for i, f := range s.fs {
		image := s.image
		if s.w.gen == nil {
			image = s.seqExpect(i)
		}
		if err := checkImage(f, image, s.mirrors); err != nil {
			return fmt.Errorf("%s: %w", stage, err)
		}
	}
	return nil
}

// replay is the timed phase of a trace workload: the trace's ops dealt
// alternately to the two clients, each waiting for its reply before
// sending its next op, followed by the drain.
func (s *session) replay(ctx context.Context, out *outcome) error {
	tr := s.w.gen(int64(s.o.fileSize()), s.o.budget(s.w.ops), s.o.seed)
	var scratch [clients][]byte
	for c := range scratch {
		s.mirrors = append(s.mirrors, newMirror(s.o.fileSize()))
		scratch[c] = make([]byte, 256<<10)
	}
	for _, o := range tr.Ops {
		if o.Off%sector != 0 || o.Size%sector != 0 || o.Size > len(scratch[0]) {
			return fmt.Errorf("trace op off=%d size=%d is not sector-grained", o.Off, o.Size)
		}
	}
	f := s.fs[0]
	t0 := time.Now()
	out.main = s.runPhase(ctx, s.o.limitOf(traceMainShare), func(c, i int) (op, bool) {
		j := i*clients + c
		if j >= len(tr.Ops) {
			return op{}, false
		}
		o := tr.Ops[j]
		if o.Kind == trace.OpRead {
			return op{kind: opRead, bytes: o.Size, do: func(ctx context.Context) error {
				_, _, err := f.ReadRange(ctx, o.Off, o.Size)
				return err
			}}, true
		}
		data := scratch[c][:o.Size]
		trace.Payload(s.o.seed, o, data)
		return op{kind: opUpdate, bytes: o.Size,
			do: func(ctx context.Context) error {
				_, err := f.UpdateAt(ctx, o.Off, data, o.At)
				return err
			},
			after: func() { s.mirrors[c].write(o.Off, data) },
		}, true
	})
	if err := s.c.settle(ctx, s.pool); err != nil {
		return err
	}
	out.drain = time.Since(t0) - out.main.wall
	if s.root != "" {
		out.diskBytes = dirBytes(s.root)
	}
	return nil
}

// seqImage is pattern p (0 or 1) of the sequential workload: a file
// image whose every sector differs between the two patterns.
func seqImage(seed int64, p, fileSize int) []byte {
	img := make([]byte, fileSize)
	trace.Payload(seed+int64(p), trace.Op{Size: fileSize}, img)
	return img
}

// seqExpect is the image file i should hold now.
func (s *session) seqExpect(file int) []byte {
	img := make([]byte, len(s.image))
	for c, pat := range s.seqLast[file] {
		copy(img[c*writeChunk:(c+1)*writeChunk], s.seqPat[pat][c*writeChunk:])
	}
	return img
}

// stream is the sequential workload's write and read phases: each client
// overwrites its own file in writeChunk pieces, alternating between two
// patterns so a stale piece cannot pass for a fresh one; a read-back is
// compared; then both read the files in readChunk pieces.
func (s *session) stream(ctx context.Context, out *outcome, gate func(stage string)) error {
	s.seqPat = [2][]byte{s.image, seqImage(s.o.seed, 1, len(s.image))}
	chunks := len(s.image) / writeChunk
	for c := range s.seqLast {
		s.seqLast[c] = make([]int, chunks)
	}
	total := s.o.budget(seqWritePasses) * chunks
	out.write = s.runPhase(ctx, s.o.limitOf(seqWriteShare), func(c, i int) (op, bool) {
		chunk, pat := i%chunks, (i/chunks+1)%2
		lo := chunk * writeChunk
		return op{kind: opWrite, bytes: writeChunk,
			do: func(ctx context.Context) error {
				_, err := s.fs[c].WithContext(ctx).WriteAt(s.seqPat[pat][lo:lo+writeChunk], int64(lo))
				return err
			},
			after: func() { s.seqLast[c][chunk] = pat },
		}, i < total
	})
	s.tr.pause()
	gate("after the write phase")
	s.tr.resume()
	out.read = s.readPhase(ctx, opRead, s.o.limitOf(seqReadShare), s.o.budget(seqReadPasses))
	t0 := time.Now()
	if err := s.c.settle(ctx, s.pool); err != nil {
		return err
	}
	out.drain = time.Since(t0)
	return nil
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) int64 {
	var n int64
	filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
