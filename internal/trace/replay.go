package trace

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/ecfs"
	"repro/internal/sim"
)

// ReplayResult aggregates one replay run.
type ReplayResult struct {
	Ops        int64
	Updates    int64
	Reads      int64
	Errors     int64
	AvgLatency time.Duration
	MaxLatency time.Duration
	// TotalLatency is the summed synchronous latency across requests.
	TotalLatency time.Duration
	// ErrorsBy splits Errors by sentinel class (see ClassifyError), so a
	// soak can tolerate transient classes while failing hard on
	// ErrClassLoss. Nil when no op errored.
	ErrorsBy map[ErrClass]int64
}

// OpResult carries one executed operation's outcome through the
// replayer's hooks.
type OpResult struct {
	// Index is the op's position in the trace.
	Index int
	Op    Op
	Lat   time.Duration
	Err   error
	// Data is the payload a successful OpRead returned. It is only valid
	// for the duration of the hook callbacks; the replayer may reuse the
	// backing array afterwards.
	Data []byte
}

// Replayer drives a trace against a cluster with a client population,
// recording per-request synchronous latency.
type Replayer struct {
	Cluster *ecfs.Cluster
	Clients int
	// Latency collects per-request sync latencies.
	Latency sim.LatencyRecorder

	// Around, if set, wraps every operation's execution: it receives the
	// op and an execution thunk, must invoke the thunk exactly once, and
	// returns its result (usually unchanged). The scenario harness uses
	// it to bracket ops with shadow-state range locks. Called
	// concurrently from the replay clients.
	Around func(op Op, do func() OpResult) OpResult
	// OnResult, if set, observes every operation's outcome (after
	// Around). Called concurrently from the replay clients.
	OnResult func(res OpResult)

	randomPayload bool
	perOpPayload  bool
	payloadSeed   int64
}

// RandomPayload switches update payloads from the default repeating
// pattern to incompressible random bytes (compression experiments).
func (r *Replayer) RandomPayload(seed int64) {
	r.randomPayload = true
	r.perOpPayload = false
	r.payloadSeed = seed
}

// PerOpPayload makes every update's payload a deterministic function of
// (seed, offset, size) instead of one shared pattern — see Payload. A
// content verifier that knows the seed can then reconstruct exactly
// what any acknowledged update wrote, which is what makes the scenario
// harness's no-lost-acknowledged-write check byte-exact.
func (r *Replayer) PerOpPayload(seed int64) {
	r.perOpPayload = true
	r.randomPayload = false
	r.payloadSeed = seed
}

// Payload fills dst with the deterministic per-op update payload for op
// under seed — the bytes a PerOpPayload replayer writes for that op.
// Two ops with different offsets or sizes get different contents, so a
// stale or lost update cannot masquerade as the current one.
func Payload(seed int64, op Op, dst []byte) {
	// splitmix64 over a per-op state: cheap, stateless, well mixed.
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(op.Off)<<1 ^ uint64(op.Size)<<40 ^ 0xbf58476d1ce4e5b9
	for i := 0; i < len(dst); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		for j := 0; j < 8 && i+j < len(dst); j++ {
			dst[i+j] = byte(z >> (8 * j))
		}
	}
}

// NewReplayer builds a replayer with the given concurrent client count.
func NewReplayer(c *ecfs.Cluster, clients int) *Replayer {
	if clients < 1 {
		clients = 1
	}
	return &Replayer{Cluster: c, Clients: clients}
}

// Prepare creates and prepopulates the backing file so every trace op
// targets written stripes, and returns a handle on it bound to ctx.
// Content is a fixed pattern (cheap, deterministic), written one stripe
// per WriteAt; trace payloads overwrite it. A cancelled ctx stops at a
// stripe boundary.
func (r *Replayer) Prepare(ctx context.Context, name string, fileSize int64) (*ecfs.File, error) {
	cli := r.Cluster.NewClient()
	f, err := cli.Open(ctx, name)
	if err != nil {
		return nil, err
	}
	span := int64(cli.StripeSpan())
	stripes := (fileSize + span - 1) / span
	chunk := PrepareChunk(int(span))
	for s := int64(0); s < stripes; s++ {
		if _, err := f.WriteAt(chunk, s*span); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// PrepareChunk returns the fixed per-stripe pattern Prepare writes, so
// content verifiers can reconstruct the initial file image.
func PrepareChunk(span int) []byte {
	chunk := make([]byte, span)
	for i := range chunk {
		chunk[i] = byte(i * 31)
	}
	return chunk
}

// Run replays the trace against f's file: ops are dealt round-robin to
// Clients concurrent clients, each opening its own handle by name,
// preserving per-client order. Returns aggregate results. The
// context is checked before every request, so a cancelled ctx aborts an
// in-flight replay (and thereby an in-flight experiment) within one
// operation. An op error does not stop the replay — it is counted
// (ReplayResult.Errors, split by class in ErrorsBy) and the first one
// is returned alongside the aggregate result, so callers tolerant of
// transient fault-window errors can inspect ErrorsBy instead.
func (r *Replayer) Run(ctx context.Context, t *Trace, f *ecfs.File) (*ReplayResult, error) {
	if len(t.Ops) == 0 {
		return &ReplayResult{}, nil
	}
	files := make([]*ecfs.File, r.Clients)
	for ci := range files {
		var err error
		if files[ci], err = r.Cluster.NewClient().Open(ctx, f.Name()); err != nil {
			return &ReplayResult{}, err
		}
	}
	res := &ReplayResult{}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		userErr error
	)
	payload := make([]byte, maxOpSize(t))
	if r.randomPayload {
		rand.New(rand.NewSource(r.payloadSeed)).Read(payload)
	} else {
		for i := range payload {
			payload[i] = byte(i*131 + 7)
		}
	}
	for ci, cf := range files {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var nOps, nUpd, nRead, nErr int64
			var total, maxL time.Duration
			var errsBy map[ErrClass]int64
			var scratch []byte
			if r.perOpPayload {
				scratch = make([]byte, maxOpSize(t))
			}
			for i := ci; i < len(t.Ops); i += r.Clients {
				if ctx.Err() != nil {
					break
				}
				op := t.Ops[i]
				exec := func() OpResult {
					out := OpResult{Index: i, Op: op}
					switch op.Kind {
					case OpUpdate:
						data := payload[:op.Size]
						if r.perOpPayload {
							data = scratch[:op.Size]
							Payload(r.payloadSeed, op, data)
						}
						out.Lat, out.Err = cf.UpdateAt(ctx, op.Off, data, op.At)
					case OpRead:
						out.Data, out.Lat, out.Err = cf.ReadRange(ctx, op.Off, op.Size)
					}
					return out
				}
				var out OpResult
				if r.Around != nil {
					out = r.Around(op, exec)
				} else {
					out = exec()
				}
				if r.OnResult != nil {
					r.OnResult(out)
				}
				if out.Err != nil {
					nErr++
					if errsBy == nil {
						errsBy = make(map[ErrClass]int64)
					}
					errsBy[ClassifyError(out.Err)]++
					mu.Lock()
					if userErr == nil {
						userErr = fmt.Errorf("trace: op %d (%v off=%d size=%d): %w", i, op.Kind, op.Off, op.Size, out.Err)
					}
					mu.Unlock()
					continue
				}
				nOps++
				if op.Kind == OpUpdate {
					nUpd++
				} else {
					nRead++
				}
				total += out.Lat
				if out.Lat > maxL {
					maxL = out.Lat
				}
				r.Latency.Observe(out.Lat)
			}
			mu.Lock()
			res.Ops += nOps
			res.Updates += nUpd
			res.Reads += nRead
			res.Errors += nErr
			res.TotalLatency += total
			if maxL > res.MaxLatency {
				res.MaxLatency = maxL
			}
			for cls, n := range errsBy {
				if res.ErrorsBy == nil {
					res.ErrorsBy = make(map[ErrClass]int64)
				}
				res.ErrorsBy[cls] += n
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil && userErr == nil {
		userErr = err
	}
	if res.Ops > 0 {
		res.AvgLatency = res.TotalLatency / time.Duration(res.Ops)
	}
	return res, userErr
}

// Throughput derives the aggregate IOPS of a completed replay using the
// bottleneck model over the cluster's resources.
func (r *Replayer) Throughput(res *ReplayResult) float64 {
	return sim.Throughput(res.Ops, r.Clients, res.AvgLatency, r.Cluster.Resources())
}

func maxOpSize(t *Trace) int {
	m := 1
	for _, op := range t.Ops {
		if op.Size > m {
			m = op.Size
		}
	}
	return m
}
