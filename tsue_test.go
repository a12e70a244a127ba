package tsue_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	tsue "repro"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	ctx := context.Background()
	opts := tsue.DefaultOptions()
	opts.BlockSize = 16 << 10
	cluster := tsue.MustNewCluster(opts)
	defer cluster.Close()

	cli := cluster.NewClient()
	f, err := cli.Open(ctx, "api-test")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, cli.StripeSpan())
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	payload := []byte("public api update")
	if _, err := f.UpdateAt(ctx, 100, payload, 0); err != nil {
		t.Fatal(err)
	}
	copy(data[100:], payload)
	got, _, err := f.ReadRange(ctx, 100, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read = %q", got)
	}
	if err := cluster.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cluster.VerifyStripes(f, data); err != nil {
		t.Fatal(err)
	}
	if n, err := cluster.Scrub(); err != nil || n == 0 {
		t.Fatalf("scrub: %d, %v", n, err)
	}
}

func TestPublicTraces(t *testing.T) {
	if tr := tsue.AliCloudTrace(1<<24, 100, 1); len(tr.Ops) != 100 {
		t.Fatal("ali trace wrong")
	}
	if tr := tsue.TenCloudTrace(1<<24, 100, 1); len(tr.Ops) != 100 {
		t.Fatal("ten trace wrong")
	}
	if _, ok := tsue.MSRTrace("src10", 1<<24, 10, 1); !ok {
		t.Fatal("src10 should exist")
	}
	if _, ok := tsue.MSRTrace("bogus", 1<<24, 10, 1); ok {
		t.Fatal("bogus volume should not exist")
	}
	if len(tsue.MSRVolumes) != 7 {
		t.Fatal("want 7 MSR volumes")
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	_, err := tsue.RunExperiment(context.Background(), "fig99", tsue.QuickScale())
	if err == nil {
		t.Fatal("unknown experiment must fail")
	}
	// The message is built from the live experiment tables, so it must
	// name the extension ids too — it can no longer drift.
	for _, id := range append(append([]string{}, tsue.Experiments...), tsue.ExtensionExperiments()...) {
		if !strings.Contains(err.Error(), id) {
			t.Fatalf("unknown-experiment message omits %q: %v", id, err)
		}
	}
}

func TestRunExperimentCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := tsue.QuickScale()
	s.Ops = 200
	s.FileSize = 1 << 20
	if _, err := tsue.RunExperiment(ctx, "fig5", s); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunExperiment = %v, want context.Canceled", err)
	}
}

// TestPublicHandleAPI drives the handle surface through the re-exports:
// a *tsue.File from Cluster.OpenFile satisfies the io interfaces and
// round-trips writes, updates and reads.
func TestPublicHandleAPI(t *testing.T) {
	ctx := context.Background()
	opts := tsue.DefaultOptions()
	opts.BlockSize = 16 << 10
	cluster := tsue.MustNewCluster(opts)
	defer cluster.Close()

	f, err := cluster.OpenFile(ctx, "handle-api")
	if err != nil {
		t.Fatal(err)
	}
	var (
		_ io.ReaderAt = f
		_ io.WriterAt = f
		_ io.Closer   = f
	)
	data := make([]byte, opts.K*opts.BlockSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	payload := []byte("public handle update")
	if _, err := f.UpdateAt(ctx, 321, payload, 0); err != nil {
		t.Fatal(err)
	}
	copy(data[321:], payload)
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("public handle round trip mismatch")
	}
	if err := cluster.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cluster.VerifyStripes(f, data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestErrorTaxonomyReexports pins the errors.Is contract of the root
// package.
func TestErrorTaxonomyReexports(t *testing.T) {
	if tsue.ErrStaleEpoch == nil || tsue.ErrNotFound == nil || tsue.ErrNodeUnreachable == nil {
		t.Fatal("error taxonomy must be populated")
	}
	var dl *tsue.DataLossError
	_ = dl // the type re-export compiles; recovery tests exercise it
}

func TestRunExperimentExtension(t *testing.T) {
	s := tsue.QuickScale()
	s.Ops = 400
	s.FileSize = 2 << 20
	rep, err := tsue.RunExperiment(context.Background(), "latency", s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "latency" || len(rep.Rows) != 6 {
		t.Fatalf("latency report wrong: %+v", rep)
	}
	if !strings.Contains(rep.String(), "tsue") {
		t.Fatal("report must include tsue row")
	}
}

func TestExperimentList(t *testing.T) {
	if len(tsue.Experiments) != 8 {
		t.Fatalf("experiments = %v", tsue.Experiments)
	}
	if len(tsue.Methods) != 6 || len(tsue.AllMethods) != 7 {
		t.Fatal("method lists wrong")
	}
	if tsue.PaperScale().Ops <= tsue.QuickScale().Ops {
		t.Fatal("paper scale should exceed quick scale")
	}
}
