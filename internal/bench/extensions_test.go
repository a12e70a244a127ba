package bench

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

func TestLatencyExtension(t *testing.T) {
	s := tinyScale()
	rep, err := Latency(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.String())
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestCompressionExtension(t *testing.T) {
	s := tinyScale()
	rep, err := Compression(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.String())
	get := func(payload, compress string) float64 {
		v, ok := getCell(rep, func(row []string) bool { return row[0] == payload && row[1] == compress }, 2)
		if !ok {
			t.Fatalf("missing row %s/%s", payload, compress)
		}
		return v
	}
	if get("redundant", "true") >= get("redundant", "false") {
		t.Error("compression should cut traffic on redundant payloads")
	}
	// Random payloads: per-message skip keeps traffic roughly unchanged.
	if get("random", "true") > get("random", "false")*1.1 {
		t.Error("compression must not inflate traffic on random payloads")
	}
}

func TestMDSScaleExtension(t *testing.T) {
	s := tinyScale()
	rep, err := MDSScale(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.String())
	if len(rep.Rows) != 10 { // 4 shard counts x 2 file counts + 2 durable rows
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// The durable rows must report real checkpoint and cold-reopen
	// costs; the in-memory rows must not (those cells are "-").
	for _, row := range rep.Rows {
		durable := strings.HasPrefix(row[0], "durable/")
		for _, col := range []int{7, 8} {
			if _, err := strconv.ParseFloat(row[col], 64); durable != (err == nil) {
				t.Fatalf("row %v: snapshot/reopen cell %q does not match durability", row, row[col])
			}
		}
	}
	// StripesOn must be paid per node's block count, not per namespace:
	// within a shard config the small and large namespaces differ ~5x in
	// refs_per_node, so the per-call cost may grow with refs but must
	// stay far below a full-namespace scan blowup. Guard the invariant
	// structurally instead: the generator verifies the reverse index
	// covers every placement exactly (it errors otherwise), and larger
	// namespaces must report proportionally larger refs_per_node.
	refSmall, ok1 := getCell(rep, func(r []string) bool { return r[0] == "1" && r[1] == strconv.Itoa(s.Ops*10) }, 6)
	refLarge, ok2 := getCell(rep, func(r []string) bool { return r[0] == "1" && r[1] == strconv.Itoa(s.Ops*50) }, 6)
	if !ok1 || !ok2 {
		t.Fatal("missing mds-scale rows")
	}
	if refLarge <= refSmall {
		t.Fatalf("refs_per_node did not grow with the namespace: %v vs %v", refLarge, refSmall)
	}
	// The contended-write phase must report a real create rate for every
	// cell (creates_per_s > 0): that is the column where shard-count
	// scaling is visible in the table itself.
	for _, row := range rep.Rows {
		cps, err := strconv.ParseFloat(row[4], 64)
		if err != nil || cps <= 0 {
			t.Fatalf("bad creates_per_s %q in row %v", row[4], row)
		}
	}
}

// TestRepairExtension smoke-runs the repair experiment: recovery under
// hot reads (FIFO vs prioritized) plus drain and decommission rows. The
// FIFO/prioritized read counts race the rebuild in wall time, so only
// structure and hard invariants are asserted here; the deterministic
// reorder proof lives in ecfs.TestPrioritizedRepairReordersQueue.
func TestRepairExtension(t *testing.T) {
	s := tinyScale()
	s.Ops = 600
	s.MaxRebuildMBps = 2.0
	rep, err := Repair(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.String())
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rep.Rows))
	}
	for _, scenario := range []string{"recover/fifo", "recover/prio"} {
		blocks, ok := getCell(rep, func(r []string) bool { return r[0] == scenario }, 4)
		if !ok || blocks <= 0 {
			t.Fatalf("%s recovered no blocks", scenario)
		}
		// The tagged columns separate rebuild from reader traffic.
		repairBW, ok := getCell(rep, func(r []string) bool { return r[0] == scenario }, 7)
		if !ok || repairBW <= 0 {
			t.Fatalf("%s reports no repair_MBps", scenario)
		}
	}
	for _, scenario := range []string{"drain", "decommission"} {
		moved, ok := getCell(rep, func(r []string) bool { return r[0] == scenario }, 4)
		if !ok || moved <= 0 {
			t.Fatalf("%s moved no blocks", scenario)
		}
	}
	// The scheduler-cap sweep: the capped drain row must report a
	// rebuild bandwidth at or under the cap it ran with (deterministic:
	// the scheduler floors the makespan at budget-bytes/cap).
	capScenario := "drain/fg/capped"
	capBW, ok := getCell(rep, func(r []string) bool { return r[0] == capScenario }, 7)
	if !ok {
		t.Fatalf("missing capped drain row %q", capScenario)
	}
	if capBW > s.MaxRebuildMBps*1.01 {
		t.Fatalf("capped drain repair_MBps = %.2f, exceeds the %.1f cap", capBW, s.MaxRebuildMBps)
	}
	if uncBW, ok := getCell(rep, func(r []string) bool { return r[0] == "drain/fg/uncapped" }, 7); !ok || uncBW <= 0 {
		t.Fatal("uncapped drain row missing repair_MBps")
	}
	// Both rows report foreground throughput, but the two are not
	// compared: the readers' op counts race the rebuild in wall time and
	// vary run to run, so capped-vs-uncapped has no deterministic order.
	capFG, ok1 := getCell(rep, func(r []string) bool { return r[0] == capScenario }, 8)
	uncFG, ok2 := getCell(rep, func(r []string) bool { return r[0] == "drain/fg/uncapped" }, 8)
	if !ok1 || !ok2 || capFG <= 0 || uncFG <= 0 {
		t.Fatalf("foreground_MBps missing: capped=%v uncapped=%v", capFG, uncFG)
	}
}

func TestExtensionRegistry(t *testing.T) {
	for id, fn := range Extensions {
		if fn == nil {
			t.Fatalf("extension %s nil", id)
		}
	}
	for _, id := range []string{"latency", "compression", "recovery", "recovery-multi", "repair", "mds-scale", "scenario"} {
		if Extensions[id] == nil {
			t.Fatalf("extension %s missing", id)
		}
	}
	if len(Extensions) != 7 {
		t.Fatalf("extensions = %d", len(Extensions))
	}
	_ = strconv.Itoa
}
