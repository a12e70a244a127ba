package trace

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/ecfs"
	"repro/internal/transport"
	"repro/internal/wire"
)

func TestClassifyError(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want ErrClass
	}{
		{"data-loss", &ecfs.DataLossError{Ino: 1, Stripe: 2, Have: 3, Need: 4}, ErrClassLoss},
		{"data-loss wrapped", fmt.Errorf("op failed: %w", &ecfs.DataLossError{}), ErrClassLoss},
		{"stale sentinel", wire.ErrStaleEpoch, ErrClassStale},
		{"stale via resp", wire.StaleEpochResp(wire.BlockID{}, 1, 2).Error(), ErrClassStale},
		{"node down", transport.ErrNodeDown{Node: 3}, ErrClassUnreachable},
		{"node down wrapped", fmt.Errorf("update: %w", transport.ErrNodeDown{Node: 3}), ErrClassUnreachable},
		// A peer outage one hop away: the responder converts its
		// transport error with wire.ErrorResp and the caller decodes the
		// reply — the class must survive the crossing.
		{"unreachable across wire", wire.ErrorResp(transport.ErrNodeDown{Node: 9}).Error(), ErrClassUnreachable},
		{"canceled", context.Canceled, ErrClassCanceled},
		{"deadline", context.DeadlineExceeded, ErrClassCanceled},
		{"other", fmt.Errorf("disk on fire"), ErrClassOther},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ClassifyError(tc.err); got != tc.want {
				t.Fatalf("ClassifyError(%v) = %q, want %q", tc.err, got, tc.want)
			}
		})
	}
}

// TestReplayErrorAccounting drives a replay against a cluster with a
// failed, unrepaired OSD: failed ops must be counted, split by sentinel
// class, and sum to the aggregate — and every class must be one a fault
// window legitimately produces (no flattening to "other").
func TestReplayErrorAccounting(t *testing.T) {
	c := ecfs.MustNewCluster(testClusterOptions("tsue"))
	defer c.Close()
	r := NewReplayer(c, 2)
	fileSize := int64(512 << 10)
	f, err := r.Prepare(context.Background(), "vol", fileSize)
	if err != nil {
		t.Fatal(err)
	}
	c.FailOSD(c.OSDs[0].ID())
	tr := AliCloud(fileSize, 400, 11)
	for i := range tr.Ops {
		if tr.Ops[i].Size > 8<<10 {
			tr.Ops[i].Size = 8 << 10
		}
	}
	res, rerr := r.Run(context.Background(), tr, f)
	if res.Errors == 0 {
		t.Fatal("no ops failed with a node down and unrepaired")
	}
	if rerr == nil {
		t.Fatal("first error must be surfaced alongside the aggregate")
	}
	var sum int64
	for cls, n := range res.ErrorsBy {
		sum += n
		if cls != ErrClassStale && cls != ErrClassUnreachable {
			t.Fatalf("unexpected error class %q (%d errors): first error %v", cls, n, rerr)
		}
	}
	if sum != res.Errors {
		t.Fatalf("ErrorsBy sums to %d, Errors = %d", sum, res.Errors)
	}
	if res.Ops+res.Errors != int64(len(tr.Ops)) {
		t.Fatalf("ops %d + errors %d != trace len %d", res.Ops, res.Errors, len(tr.Ops))
	}
}
