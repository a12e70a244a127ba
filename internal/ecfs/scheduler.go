// The cluster-level repair scheduler: one coordinator per cluster
// (owned by the MDS) through which every repair and drain admits its
// per-stripe jobs. It is the piece that turns N independent repair
// queues into coordinated maintenance:
//
//   - Bandwidth budget. An optional rebuild-bandwidth cap
//     (Cluster.SetRebuildCap) is enforced as a token bucket over priced bytes: tokens accrue as
//     *foreground* busy time accumulates on the cluster's resources
//     (sim.ForegroundClasses — the scheduler's virtual clock), and
//     every migrated or rebuilt block spends its byte count. A worker
//     whose queue is over budget backs off — it yields wall time to the
//     foreground workload while waiting for tokens — and, when the
//     foreground is idle, the scheduler advances the virtual clock
//     itself by recording throttle time, which the engines fold into
//     their makespan (VirtualTime). Measured rebuild bandwidth
//     therefore lands at or under the cap by construction.
//   - Fairness across victims. Concurrent repairs/drains register their
//     queues; when admissions contend for budget, the scheduler grants
//     the waiter whose queue carries the most weight — pending depth
//     plus a boost per read-through-repair promotion — so the deepest
//     and hottest backlog drains first instead of whichever goroutine
//     happens to wake up.
//   - Hint routing. wire.KRepairHint promotions and wire.KRepairStatus
//     depth queries resolve across *all* registered queues, so two
//     concurrent victims both benefit from read-through repair (the
//     MDS previously tracked only the most recently started repair).
package ecfs

import (
	"context"
	"sync"
	"time"

	"repro/internal/sim"
)

// admitPoll is the wall-clock back-off between admission attempts of a
// throttled repair worker. Each poll is a slice handed to the
// foreground workload; it also bounds how stale the foreground clock
// reading a waiter decides on can be.
const admitPoll = 200 * time.Microsecond

// admitMaxPolls bounds how many wall polls a waiter spends hoping the
// foreground clock advances before the scheduler self-advances the
// virtual clock (throttle time). It keeps a capped rebuild on an idle
// cluster from degenerating into a wall-clock sleep of Bytes/cap.
const admitMaxPolls = 2

// maxThrottleSleep bounds the real sleep that accompanies a throttle
// injection. A cap is physically a pacing device: a capped rebuild must
// also stretch in wall time, or concurrent foreground goroutines would
// see the same burst of interference the cap exists to prevent. The
// bound keeps a deeply capped run from turning into a full wall-clock
// replay of its virtual idle.
const maxThrottleSleep = 2 * time.Millisecond

// promotionWeight is how many queued stripes one read-through-repair
// promotion is worth when ranking contending queues: promoted queues
// hold stripes clients are actively paying degraded-read decodes for.
const promotionWeight = 4

// RepairScheduler coordinates all repair and drain work running against
// one cluster: it admits per-stripe jobs against an optional
// rebuild-bandwidth budget, interleaves concurrent victims' queues
// fairly, and routes read-through-repair hints across every active
// queue. One scheduler exists per cluster, owned by its MDS
// (MDS.Scheduler); the zero configuration (no resources, no cap) admits
// everything immediately, which is what a real TCP deployment without a
// virtual-time model gets.
type RepairScheduler struct {
	mu        sync.Mutex
	resources []*sim.Resource // cluster resources carrying the foreground clock
	fgBase    []time.Duration // foreground busy snapshot at Configure time
	rate      float64         // cluster rebuild cap, bytes per virtual second; 0 = uncapped
	// The budget ledger. With a traffic source installed (SetTrafficSource
	// — the in-process cluster points it at the network's tagged
	// rebuild+drain byte counters), spent bytes are *priced* bytes: what
	// the rebuild actually put on the wire, fetches and stores and fences
	// included. Without one, the engines' per-stripe payload charges
	// (charge) stand in — the best a deployment without a pricing model
	// can account.
	traffic     func() int64
	trafficBase int64
	charged     int64
	// chargedTotal is the monotonic lifetime sum of charge() bytes. It
	// is never rebased: engines snapshot per-run deltas of the lifetime
	// ledger (TotalSpentBytes), which must stay correct even when
	// SetRebuildCap rebases the budget-relative ledger above mid-run.
	chargedTotal int64
	// throttled is the monotonic published counter of injected virtual
	// idle (engines snapshot deltas of it); balThrottle is the same
	// quantity as a budget term, which rebases to zero whenever the
	// budget's zero point moves (Configure / SetRebuildCap).
	throttled   time.Duration
	balThrottle time.Duration
	queues      []*repairQueue // active repair/drain queues, registration order
	waiting     map[*repairQueue]int
}

// NewRepairScheduler builds a scheduler over the given resources with a
// rebuild cap in MB/s (decimal; 0 disables the cap). resources may be
// nil: the foreground clock then never advances and a capped scheduler
// paces purely by throttle time.
func NewRepairScheduler(resources []*sim.Resource, maxMBps float64) *RepairScheduler {
	s := &RepairScheduler{waiting: make(map[*repairQueue]int)}
	s.Configure(resources, maxMBps)
	return s
}

// Configure (re)binds the scheduler to a resource set and rebuild cap,
// rebasing the budget from now. Cluster construction calls it once;
// tests may reconfigure an idle scheduler.
func (s *RepairScheduler) Configure(resources []*sim.Resource, maxMBps float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resources = resources
	s.rate = maxMBps * 1e6
	s.rebaseLocked()
}

// SetRebuildCap changes the cluster rebuild-bandwidth cap (MB/s,
// decimal; 0 removes it) and rebases the budget's zero point: the
// foreground clock and the byte ledger restart from now, so foreground
// history accrued before the cap was set does not grant an unbounded
// initial token balance (a cap set at time T means "from T on"). Safe
// while repairs run: the next admission sees the new rate.
func (s *RepairScheduler) SetRebuildCap(maxMBps float64) {
	s.mu.Lock()
	s.rate = maxMBps * 1e6
	s.rebaseLocked()
	s.mu.Unlock()
}

// rebaseLocked restarts the budget from the current instant: foreground
// clock, throttle balance, and the byte ledger all zero here (the
// published Throttled counter stays monotonic). Callers hold s.mu.
func (s *RepairScheduler) rebaseLocked() {
	s.fgBase = sim.SnapshotBusyClasses(s.resources, sim.ForegroundClasses...)
	s.balThrottle = 0
	s.charged = 0
	if s.traffic != nil {
		s.trafficBase = s.traffic()
	}
}

// SetTrafficSource installs the priced-byte ledger: a function
// returning the cumulative rebuild+drain bytes the network has carried
// (the in-process cluster wires it to the tagged netsim counters). The
// current reading becomes the budget's zero point.
func (s *RepairScheduler) SetTrafficSource(f func() int64) {
	s.mu.Lock()
	s.traffic = f
	if f != nil {
		s.trafficBase = f()
	}
	s.mu.Unlock()
}

// spentLocked returns the bytes consumed from the budget: priced wire
// bytes when a traffic source is installed, the engines' payload
// charges otherwise. Callers hold s.mu.
func (s *RepairScheduler) spentLocked() int64 {
	if s.traffic != nil {
		return s.traffic() - s.trafficBase
	}
	return s.charged
}

// SpentBytes returns the rebuild/drain bytes consumed from the budget
// since the scheduler was configured (or the budget last rebased):
// priced wire bytes with a traffic source installed, per-stripe
// payload charges otherwise. The reading is budget-relative — it
// restarts at zero on Configure/SetRebuildCap; use TotalSpentBytes for
// per-run deltas.
func (s *RepairScheduler) SpentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spentLocked()
}

// TotalSpentBytes returns the monotonic lifetime rebuild/drain byte
// ledger: the raw traffic-source reading when one is installed, the
// cumulative charge() sum otherwise. Unlike SpentBytes it is never
// rebased, so engines can snapshot it around a run and trust the delta
// to be non-negative even when SetRebuildCap rebases the budget's zero
// point mid-flight.
func (s *RepairScheduler) TotalSpentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.traffic != nil {
		return s.traffic()
	}
	return s.chargedTotal
}

// Throttled returns the cumulative virtual idle time the scheduler has
// injected to keep rebuild traffic under the cap. Engines snapshot it
// around a run and fold the delta into their makespan.
func (s *RepairScheduler) Throttled() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.throttled
}

// Pending returns the stripes still queued across every active repair
// and drain — the wire.KRepairStatus answer.
func (s *RepairScheduler) Pending() int {
	s.mu.Lock()
	qs := append([]*repairQueue(nil), s.queues...)
	s.mu.Unlock()
	n := 0
	for _, q := range qs {
		n += q.pending()
	}
	return n
}

// Promote moves a still-pending stripe to the front of whichever active
// queue holds it (read-through repair across concurrent victims) and
// reports whether any queue did. Queues running in FIFO-baseline mode
// (RepairOptions.NoPromote) are skipped.
func (s *RepairScheduler) Promote(ino uint64, stripe uint32) bool {
	s.mu.Lock()
	qs := append([]*repairQueue(nil), s.queues...)
	s.mu.Unlock()
	for _, q := range qs {
		if q.noPromote {
			continue
		}
		if q.promote(ino, stripe) {
			return true
		}
	}
	return false
}

// register adds an engine run's queue to the active set.
func (s *RepairScheduler) register(q *repairQueue) {
	s.mu.Lock()
	s.queues = append(s.queues, q)
	s.mu.Unlock()
}

// unregister removes a queue when its run finishes.
func (s *RepairScheduler) unregister(q *repairQueue) {
	s.mu.Lock()
	out := s.queues[:0]
	for _, cur := range s.queues {
		if cur != q {
			out = append(out, cur)
		}
	}
	s.queues = out
	s.mu.Unlock()
}

// capRate returns the cluster cap an admission runs against, in bytes
// per virtual second; 0 means uncapped.
func (s *RepairScheduler) capRate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rate
}

// fgClockLocked returns the foreground virtual clock: the largest
// per-resource foreground busy increase since Configure. Callers hold
// s.mu.
func (s *RepairScheduler) fgClockLocked() time.Duration {
	return sim.MaxBusyDeltaClasses(s.resources, s.fgBase, sim.ForegroundClasses...)
}

// budgetLocked reads the budget at rate bytes/s: the bytes the
// foreground clock plus the injected throttle time allow, and the bytes
// spent. Callers hold s.mu.
func (s *RepairScheduler) budgetLocked(rate float64) (have, spent int64) {
	clock := max(0, s.fgClockLocked()+s.balThrottle)
	return int64(rate * clock.Seconds()), s.spentLocked()
}

// weight ranks a queue for contended admissions: pending depth plus a
// boost per promotion (hot queues first). Callers need not hold s.mu —
// the queue has its own lock.
func weight(q *repairQueue) int {
	return q.pending() + promotionWeight*q.promotions()
}

// bestWaiterLocked returns the highest-weight queue currently waiting
// for budget (registration order breaks ties). Callers hold s.mu.
func (s *RepairScheduler) bestWaiterLocked() *repairQueue {
	var best *repairQueue
	bw := -1
	for _, q := range s.queues {
		if s.waiting[q] == 0 {
			continue
		}
		if w := weight(q); w > bw {
			best, bw = q, w
		}
	}
	return best
}

// admit blocks a worker of queue q until the rebuild budget allows
// another stripe job, or ctx ends. Budget accounting is debt-based: a
// job is admitted while spent bytes are at or under the accrued budget
// and charged after it completes (charge), so no size estimate is
// needed and over-shoot is bounded by the in-flight worker count. While
// over budget the worker backs off in wall time (yielding to foreground
// goroutines); if the foreground clock cannot cover the debt after
// admitMaxPolls polls, the scheduler injects the shortfall as throttle
// time — virtual idle the engines fold into their makespan.
func (s *RepairScheduler) admit(ctx context.Context, q *repairQueue) error {
	rate := s.capRate()
	if rate <= 0 {
		return ctx.Err()
	}
	s.mu.Lock()
	s.waiting[q]++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.waiting[q]--
		if s.waiting[q] == 0 {
			delete(s.waiting, q)
		}
		s.mu.Unlock()
	}()

	polls := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.mu.Lock()
		have, spent := s.budgetLocked(rate)
		if spent <= have {
			// Tokens are available; under contention only the
			// highest-weight waiter takes them.
			if best := s.bestWaiterLocked(); best == nil || best == q {
				s.mu.Unlock()
				return nil
			}
			// Lost the best-waiter race: the winner's charge will open a
			// fresh shortfall, which deserves the full wall back-off
			// before this waiter self-advances the virtual clock again.
			polls = 0
		} else if polls >= admitMaxPolls {
			// The foreground is idle (or too slow to matter): advance
			// the virtual clock by the shortfall ourselves — the
			// modeled idle a capped rebuild inserts into its own
			// makespan — and pace in wall time too (bounded), so the
			// interference burst is genuinely spread out for whatever
			// foreground work is running.
			short := time.Duration(float64(spent-have) / rate * float64(time.Second))
			s.throttled += short
			s.balThrottle += short
			if best := s.bestWaiterLocked(); best == nil || best == q {
				s.mu.Unlock()
				if short > maxThrottleSleep {
					short = maxThrottleSleep
				}
				time.Sleep(short)
				return nil
			}
			// The injection covered the shortfall on the winner's
			// behalf; start the wall back-off over so this waiter does
			// not re-inject on every subsequent poll, inflating
			// Throttled() under sustained multi-queue contention.
			polls = 0
		}
		s.mu.Unlock()
		time.Sleep(admitPoll)
		polls++
	}
}

// AdmitMaintenance paces a background maintenance pass (segment
// compaction, scrub-side housekeeping) through the same byte budget
// that gates repair traffic, without competing as a repair queue: it
// never injects throttle time into the shared ledger — concurrent
// repair runs must not inherit virtual idle from the compactor — and
// after a bounded wall back-off it proceeds regardless, charging its
// bytes so sustained maintenance still eats into the budget the next
// admission sees. With no cap configured it admits immediately.
func (s *RepairScheduler) AdmitMaintenance(ctx context.Context, bytes int64) error {
	rate := s.capRate()
	if rate <= 0 {
		s.charge(bytes)
		return ctx.Err()
	}
	for polls := 0; ; polls++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.mu.Lock()
		have, spent := s.budgetLocked(rate)
		s.mu.Unlock()
		if spent <= have || polls >= admitMaxPolls {
			s.charge(bytes)
			return nil
		}
		time.Sleep(admitPoll)
	}
}

// charge records a completed stripe job's payload bytes in the
// fallback ledger — the budget's spend when no traffic source is
// installed (a deployment without a pricing model).
func (s *RepairScheduler) charge(bytes int64) {
	if bytes <= 0 {
		return
	}
	s.mu.Lock()
	s.charged += bytes
	s.chargedTotal += bytes
	s.mu.Unlock()
}

// capFloor returns the minimum makespan the cap imposes on a run that
// consumed the given budget bytes (bytes/rate), or 0 when uncapped —
// the clamp that guarantees a capped run never *reports* bandwidth
// above its cap regardless of worker interleaving. The budget is
// cluster-global, so with concurrent capped runs each run's delta
// includes the others' traffic and its floor over-estimates — the
// conservative direction: the combined traffic is what the cap bounds,
// and every individual report stays at or under it.
func (s *RepairScheduler) capFloor(bytes int64) time.Duration {
	rate := s.capRate()
	if rate <= 0 || bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / rate * float64(time.Second))
}
