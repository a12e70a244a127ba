// Package tsue is the public API of this TSUE reproduction: a two-stage
// data update method for an erasure-coded cluster file system (Wei et
// al., HPDC '25), together with the full ECFS substrate it runs in, the
// five baseline update methods the paper compares against, the synthetic
// cloud/MSR trace workloads, and the benchmark harness that regenerates
// every table and figure of the paper's evaluation.
//
// A file is read, written and updated only through a *File handle:
//
//	ctx := context.Background()
//	cluster := tsue.MustNewCluster(tsue.DefaultOptions())
//	defer cluster.Close()
//	f, _ := cluster.OpenFile(ctx, "volume0")
//	f.WriteAt(data, 0)                      // io.WriterAt: striped + encoded
//	f.UpdateAt(ctx, off, newBytes, 0)       // two-stage TSUE update
//	buf := make([]byte, n)
//	f.ReadAt(buf, off)                      // io.ReaderAt: read-your-writes
//	f.Close()
//
// A real TCP deployment of the same nodes (cmd/ecfsd) is reached with
// nothing but the metadata server's address — node addresses, stripe
// geometry and block size are self-discovered, and the connection pool
// re-resolves addresses when nodes move:
//
//	rc, _ := tsue.Dial(ctx, "10.0.0.1:7000")
//	defer rc.Close()
//	f, _ := rc.Open(ctx, "volume0")
//
// Everything in-process is deterministic: devices and the network are
// priced by models (see internal/device, internal/netsim) while block
// contents, logs and parity are real and verified.
//
// Failure handling surfaces as an errors.Is-able taxonomy: ErrStaleEpoch
// (placement moved; retried internally), ErrNotFound (block or stripe
// never written — a read past a file's end), ErrNodeUnreachable (transport-level delivery failure), and
// *DataLossError (recovery could not reassemble a stripe).
package tsue

import (
	"context"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/ecfs"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// Cluster is an assembled in-process ECFS deployment. Files are opened
// through Cluster.OpenFile, which returns *File handles.
type Cluster = ecfs.Cluster

// Options configures a cluster.
type Options = ecfs.Options

// Client is the POSIX-facing access component: its Open returns the
// *File handles every read, write and update goes through.
type Client = ecfs.Client

// File is a handle on one ECFS file: io.ReaderAt, io.WriterAt,
// io.Closer, plus UpdateAt for two-stage TSUE updates.
type File = ecfs.File

// RemoteClient is a self-discovering client of a TCP-deployed cluster,
// obtained from Dial.
type RemoteClient = ecfs.RemoteClient

// DataLossError reports that recovery could not obtain K shards of a
// stripe from reachable holders. Returned (alongside the partial
// result) by Cluster.Recover; match with errors.As.
type DataLossError = ecfs.DataLossError

// Error taxonomy, usable with errors.Is across both transports.
var (
	// ErrStaleEpoch is a structured rejection of a request carrying an
	// outdated placement epoch. Clients re-resolve and retry these
	// internally; it surfaces only from raw wire access.
	ErrStaleEpoch = wire.ErrStaleEpoch
	// ErrNotFound reports a block that has never been written on the
	// serving node, or a read of a stripe past a file's written end.
	ErrNotFound = wire.ErrNotFound
	// ErrNodeUnreachable wraps every transport-level delivery failure —
	// a failed node in-process, a refused dial or dead connection on
	// TCP.
	ErrNodeUnreachable = transport.ErrNodeUnreachable
	// ErrStrandedCutover reports a drain stripe rebound at the MDS whose
	// post-rebind fence/refetch failed; the drain hard-aborts (never
	// resumable) with the partial result alongside. See
	// docs/OPERATIONS.md's failure-mode table.
	ErrStrandedCutover = ecfs.ErrStrandedCutover
)

// StrategyConfig carries update-method tunables.
type StrategyConfig = update.Config

// Trace is a replayable block workload.
type Trace = trace.Trace

// Replayer drives traces against a cluster.
type Replayer = trace.Replayer

// Scale sizes a benchmark experiment.
type Scale = bench.Scale

// Report is a rendered experiment result.
type Report = bench.Report

// Methods lists the update methods of the paper's comparison, in order.
var Methods = update.Methods

// AllMethods additionally includes FL (§2.2 of the paper).
var AllMethods = update.AllMethods

// DefaultOptions mirrors the paper's SSD testbed: 16 OSDs, 25 Gb/s
// Ethernet, RS(6,4), TSUE.
func DefaultOptions() Options { return ecfs.DefaultOptions() }

// DefaultStrategyConfig returns the paper's TSUE configuration (16 MiB
// units, 4 units per pool, 4 pools per SSD, DeltaLog enabled).
func DefaultStrategyConfig() StrategyConfig { return update.DefaultConfig() }

// NewCluster builds and wires a cluster.
func NewCluster(opts Options) (*Cluster, error) { return ecfs.NewCluster(opts) }

// MustNewCluster panics on configuration errors.
func MustNewCluster(opts Options) *Cluster { return ecfs.MustNewCluster(opts) }

// Dial connects to a TCP-deployed ECFS cluster (cmd/ecfsd) knowing only
// the MDS address. Node addresses, stripe geometry and block size are
// discovered over wire.KResolveAddr (OSDs report their listen addresses
// in heartbeats), and the returned client's pool re-resolves addresses
// whenever a node is unreachable — fresh-id recovery and restarts on
// new ports need no manual address pushes.
func Dial(ctx context.Context, mdsAddr string) (*RemoteClient, error) {
	return ecfs.Dial(ctx, mdsAddr)
}

// NewReplayer builds a trace replayer with the given concurrent client
// population.
func NewReplayer(c *Cluster, clients int) *Replayer { return trace.NewReplayer(c, clients) }

// AliCloudTrace generates a synthetic trace matching the Ali-Cloud block
// trace statistics the paper cites (75% updates, 46% 4 KiB).
func AliCloudTrace(fileSize int64, ops int, seed int64) *Trace {
	return trace.AliCloud(fileSize, ops, seed)
}

// TenCloudTrace generates a synthetic trace matching the Tencent CBS
// statistics (69% updates, 69% 4 KiB, strong locality).
func TenCloudTrace(fileSize int64, ops int, seed int64) *Trace {
	return trace.TenCloud(fileSize, ops, seed)
}

// MSRTrace generates a synthetic MSR Cambridge volume trace; ok is false
// for unknown volume names (see MSRVolumes).
func MSRTrace(volume string, fileSize int64, ops int, seed int64) (*Trace, bool) {
	return trace.MSR(volume, fileSize, ops, seed)
}

// MSRVolumes lists the seven MSR volumes of the paper's Fig. 8.
var MSRVolumes = trace.MSRVolumes

// QuickScale sizes experiments for CI; PaperScale approaches the paper's
// workloads.
func QuickScale() Scale { return bench.Quick() }

// PaperScale returns the larger experiment scale.
func PaperScale() Scale { return bench.Paper() }

// Experiments lists the reproducible experiment ids in the paper's
// order: fig5, fig6a, fig6b, fig7, table1, table2, fig8a, fig8b.
var Experiments = bench.Order

// ExtensionExperiments lists the extension-experiment ids (beyond the
// paper's charts) in sorted order.
func ExtensionExperiments() []string {
	out := make([]string, 0, len(bench.Extensions))
	for id := range bench.Extensions {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// RunExperiment regenerates one of the paper's tables/figures, or one of
// the extension experiments (see ExtensionExperiments). A cancelled ctx
// aborts the run between — and, through the replayer, within — its
// cluster executions.
func RunExperiment(ctx context.Context, id string, s Scale) (*Report, error) {
	if fn, ok := bench.Experiments[id]; ok {
		return fn(ctx, s)
	}
	if fn, ok := bench.Extensions[id]; ok {
		return fn(ctx, s)
	}
	return nil, errUnknownExperiment(id)
}

type errUnknownExperiment string

// Error lists every accepted id, built from the live experiment tables
// (bench.Order plus the Extensions keys) so the message cannot drift
// from what RunExperiment actually accepts.
func (e errUnknownExperiment) Error() string {
	ids := append(append([]string{}, bench.Order...), ExtensionExperiments()...)
	return "tsue: unknown experiment " + string(e) + " (want one of " + strings.Join(ids, ", ") + ")"
}
