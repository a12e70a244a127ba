package update

import (
	"maps"
	"slices"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/device"
	"repro/internal/logpool"
	"repro/internal/wire"
)

// nopPersist accepts every record and fold.
type nopPersist struct{}

func (nopPersist) AppendEntry(uint64, wire.BlockID, uint32, int64, []byte) {}
func (nopPersist) FoldBlock(uint64, wire.BlockID)                          {}
func (nopPersist) FoldUnit(uint64)                                         {}

// TestReplayRoutesByPersistedName: every layer a method declares is
// durably backed, and a record replayed under the name its layer
// persisted it under lands back in that layer. A name no layer
// declares is dropped.
func TestReplayRoutesByPersistedName(t *testing.T) {
	for _, method := range []string{"fl", "pl", "cord", "tsue"} {
		t.Run(method, func(t *testing.T) {
			var names []string
			cfg := DefaultConfig()
			cfg.BlockSize = 4 << 10
			cfg.Pools = 2
			cfg.Persist = logpool.PersistFunc(func(name string) logpool.Persist {
				names = append(names, name)
				return nopPersist{}
			})
			dev := device.New("solo", device.ChameleonSSD())
			s, err := New(method, cfg, &soloEnv{store: blockstore.New(dev), dev: dev})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			appended := func() (n int64) {
				for _, st := range s.LayerStats() {
					n += st.AppendedEntries
				}
				return n
			}
			b := wire.BlockID{Ino: 1, Stripe: 0, Idx: 0}
			s.ReplayPersisted("no-such-layer/osd1/0", b, 0, 1, []byte{1, 2, 3})
			if n := appended(); n != 0 {
				t.Fatalf("unknown layer's record was appended (%d entries)", n)
			}
			for i, name := range names {
				before := appended()
				s.ReplayPersisted(name, b, 0, 1, []byte{1, 2, 3})
				if name == "tsue-replica/osd1" {
					if ts := s.(*tsue); ts.replicas[b] == nil {
						t.Fatalf("replica record under %q not indexed", name)
					}
					continue
				}
				if appended() != before+1 {
					t.Fatalf("record %d under %q reached no layer", i, name)
				}
			}
			if method == "tsue" {
				if !slices.Contains(names, "tsue-replica/osd1") || !slices.Contains(names, "tsue-data/osd1/1") {
					t.Fatalf("tsue persisted names %v", names)
				}
			}
		})
	}
}

// TestLayerTableEveryMethod: every method's stats, memory budget and
// settle come from its layer table — what Table 2, Fig. 6b and the
// benchmark's per-layer metrics read. LayerStats names exactly the
// declared pooled layers, MemoryBytes is their budget (0 with no pool),
// and Settle returns.
func TestLayerTableEveryMethod(t *testing.T) {
	declared := map[string][]string{
		"fo": nil, "plr": nil, "parix": nil,
		"fl":   {"data"},
		"pl":   {"parity"},
		"cord": {"collector", "parity"},
		"tsue": {"data", "delta", "parity"},
	}
	for _, method := range AllMethods {
		t.Run(method, func(t *testing.T) {
			want, ok := declared[method]
			if !ok {
				t.Fatalf("no declared layers listed for %s", method)
			}
			cfg := DefaultConfig()
			cfg.BlockSize = 4 << 10
			dev := device.New("solo", device.ChameleonSSD())
			s, err := New(method, cfg, &soloEnv{store: blockstore.New(dev), dev: dev})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			stats := s.LayerStats()
			if got := slices.Sorted(maps.Keys(stats)); !slices.Equal(got, want) {
				t.Fatalf("layers %v, want %v", got, want)
			}
			if mem := s.MemoryBytes(); (mem == 0) != (len(want) == 0) {
				t.Fatalf("memory budget %d with %d pooled layers", mem, len(want))
			}
			settled := make(chan struct{})
			go func() { s.Settle(); close(settled) }()
			select {
			case <-settled:
			case <-time.After(10 * time.Second):
				t.Fatal("Settle did not return")
			}
		})
	}
}
