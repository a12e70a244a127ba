// Package scenario is the trace-driven soak harness: it drives N
// concurrent tenants — each a trace.Replayer over its own file with a
// heterogeneous synthetic workload — against one in-process ECFS
// cluster while a declarative, seed-deterministic fault schedule
// injects OSD kills (with prioritized repair onto a fresh replacement),
// drain-cancel-resume cycles, slow-device windows, and rebuild-cap
// rebases, and a continuous invariant checker proves the cluster honest
// between and after phases:
//
//   - parity consistency: Cluster.Scrub re-encodes every placed stripe;
//   - no lost acknowledged write: every tenant keeps a byte-exact
//     shadow of its file (see shadow) compared block-for-block at each
//     checkpoint and against every acknowledged read inline;
//   - epoch monotonicity: a stripe's placement epoch never regresses
//     across rebinds (repair and drain both bump it);
//   - ledger monotonicity: the repair scheduler's lifetime spent-bytes
//     ledger never decreases, cap rebases included.
//
// Everything is deterministic given Spec.Seed: tenant traces, payload
// bytes, and the fault timeline (Engine.Timeline, printable with
// FormatTimeline). Execution interleaving naturally varies run to run —
// the invariants are what must hold regardless.
package scenario

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ecfs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Spec configures a scenario soak.
type Spec struct {
	// Name selects the fault-mix preset: "mixed" (default), "churn"
	// (membership-heavy), or "degrade" (performance-fault-heavy).
	Name string
	// Seed determines tenant traces, payloads, and the fault timeline.
	Seed int64
	// Tenants is the number of concurrent tenants (default 3). Tenant
	// sizes are heavy-tailed: tenant i runs ~Ops/(i+1) operations
	// against a ~proportionally smaller file.
	Tenants int
	// Clients is the per-tenant concurrent client count (default 4).
	Clients int
	// Phases is the number of workload phases per pass (default 3); an
	// invariant checkpoint runs after every phase.
	Phases int
	// Events is the fault count per pass (default 4). The first two are
	// always an OSD kill and a drain-cancel-resume.
	Events int
	// Ops is the largest tenant's operation count per pass (default 600).
	Ops int
	// MaxOpSize clamps trace request sizes (default 64 KiB = one stripe
	// under the default geometry).
	MaxOpSize int
	// SoakDuration, when positive, repeats passes — each a fresh cluster
	// with a pass-specific fault timeline — until the wall-clock budget
	// is spent. Zero runs exactly one pass.
	SoakDuration time.Duration
	// Cluster overrides the cluster geometry. Nil selects a scenario
	// default: 9 OSDs, RS(4,2), 16 KiB blocks, TSUE — small enough to
	// soak quickly, with three nodes of slack above the K+M pool floor
	// so kills and drains never strand placement.
	Cluster *ecfs.Options
}

func (s *Spec) applyDefaults() {
	if s.Name == "" {
		s.Name = "mixed"
	}
	if s.Tenants <= 0 {
		s.Tenants = 3
	}
	if s.Clients <= 0 {
		s.Clients = 4
	}
	if s.Phases <= 0 {
		s.Phases = 3
	}
	if s.Events <= 0 {
		s.Events = 4
	}
	if s.Ops <= 0 {
		s.Ops = 600
	}
	if s.MaxOpSize <= 0 {
		s.MaxOpSize = 64 << 10
	}
	if s.Cluster == nil {
		o := ecfs.DefaultOptions()
		o.NumOSDs, o.K, o.M = 9, 4, 2
		o.BlockSize = 16 << 10
		s.Cluster = &o
	}
}

// Quantiles is one latency distribution summary.
type Quantiles struct {
	N              int
	P50, P99, P999 time.Duration
}

// TenantResult aggregates one tenant across all passes.
type TenantResult struct {
	Tenant   string
	Workload string
	Ops      int64
	Updates  int64
	Reads    int64
	Errors   int64
	ErrorsBy map[trace.ErrClass]int64
	// Read and Write summarize acknowledged-op latency per foreground
	// traffic class (sim.ClassForegroundRead / sim.ClassForegroundWrite).
	Read, Write Quantiles
}

// Result summarizes a completed soak.
type Result struct {
	Passes          int
	Checkpoints     int
	EventsFired     int
	Healed          int // failed updates re-executed at checkpoints
	StripesScrubbed int
	RepairBytes     int64 // scheduler lifetime spent bytes, summed over passes
	// Restarts counts kill-restart cycles; the Resilver* fields sum what
	// the restarted nodes did with their recovered local state. A large
	// Kept against a small Rebuilt is the durable engine's payoff: a
	// crash-restart is not a full rebuild.
	Restarts        int
	ResilverKept    int
	ResilverRebuilt int
	ResilverDropped int
	// MDSRestarts counts MDS crash/reopen cycles: each one is a full
	// snapshot-load + op-log-replay recovery verified by the same
	// checkpoint invariants as steady-state passes.
	MDSRestarts int
	// Timeline is the pass-0 fault schedule — the reproducibility
	// contract for the seed.
	Timeline []Event
	Tenants  []TenantResult
}

// tenantState persists across passes: identity, workload, and
// accumulated results.
type tenantState struct {
	name                      string
	workload                  string
	seed                      int64 // payload seed
	ops, updates, reads, errs int64
	errsBy                    map[trace.ErrClass]int64
	readRec                   sim.LatencyRecorder
	writeRec                  sim.LatencyRecorder
}

// tenantRun is one tenant's per-pass state.
type tenantRun struct {
	st     *tenantState
	f      *ecfs.File
	sh     *shadow
	rep    *trace.Replayer
	phases []*trace.Trace
}

// Engine executes a Spec.
type Engine struct {
	spec     Spec
	timeline []Event

	clock atomic.Int64 // op attempts in the current phase
	// kill-restart tallies, folded into the Result after each pass.
	restarts, resKept, resRebuilt, resDropped atomic.Int64
	// MDS crash/reopen tally, folded into the Result after each pass.
	mdsRestarts atomic.Int64
	// memClock counts membership-event edges: +1 when a kill or drain
	// starts executing, +1 when it finishes. Even and unchanged across a
	// read means no membership window overlapped it, so the inline
	// shadow check is decisive; otherwise the read may legitimately be
	// degraded-stale and only the checkpoint compare judges it.
	memClock atomic.Int64

	vmu       sync.Mutex
	violation error // first live-read invariant violation
}

// New validates the spec, applies defaults, and pre-generates the
// pass-0 fault timeline.
func New(spec Spec) (*Engine, error) {
	spec.applyDefaults()
	if _, ok := presetWeights[spec.Name]; !ok {
		return nil, fmt.Errorf("scenario: unknown preset %q (have %v)", spec.Name, Presets())
	}
	if spec.Cluster.K+spec.Cluster.M >= spec.Cluster.NumOSDs {
		return nil, fmt.Errorf("scenario: need NumOSDs > K+M for fault injection (have %d <= %d)",
			spec.Cluster.NumOSDs, spec.Cluster.K+spec.Cluster.M)
	}
	e := &Engine{spec: spec}
	e.timeline = schedule(spec, 0)
	return e, nil
}

// Spec returns the engine's resolved spec (defaults applied).
func (e *Engine) Spec() Spec { return e.spec }

// Timeline returns the pass-0 fault schedule. Identical specs produce
// identical timelines — print it with FormatTimeline to compare runs.
func (e *Engine) Timeline() []Event {
	return append([]Event(nil), e.timeline...)
}

// noteViolation records the first live invariant violation (a read that
// contradicts the shadow on clean stripes).
func (e *Engine) noteViolation(err error) {
	e.vmu.Lock()
	if e.violation == nil {
		e.violation = err
	}
	e.vmu.Unlock()
}

func (e *Engine) takeViolation() error {
	e.vmu.Lock()
	defer e.vmu.Unlock()
	return e.violation
}

// Run executes the soak: one pass when Spec.SoakDuration is zero, else
// passes until the budget is spent. The returned error is the first
// invariant violation or hard fault-execution failure; transient
// op errors inside fault windows (stale epoch, unreachable node) are
// tolerated, counted, and healed at the next checkpoint.
func (e *Engine) Run(ctx context.Context) (*Result, error) {
	res := &Result{Timeline: e.Timeline()}
	states := make([]*tenantState, e.spec.Tenants)
	for i := range states {
		st := &tenantState{
			name: fmt.Sprintf("tenant-%d", i),
			seed: e.spec.Seed ^ int64(i+1)*7919,
		}
		switch i % 3 {
		case 0:
			st.workload = "ali-cloud"
		case 1:
			st.workload = "ten-cloud"
		case 2:
			st.workload = "msr-src10"
		}
		states[i] = st
	}
	start := time.Now()
	var err error
	for pass := 0; ; pass++ {
		if err = e.runPass(ctx, pass, states, res); err != nil {
			break
		}
		res.Passes++
		if e.spec.SoakDuration <= 0 || time.Since(start) >= e.spec.SoakDuration {
			break
		}
		if ctx.Err() != nil {
			err = ctx.Err()
			break
		}
	}
	for _, st := range states {
		tr := TenantResult{
			Tenant:   st.name,
			Workload: st.workload,
			Ops:      st.ops,
			Updates:  st.updates,
			Reads:    st.reads,
			Errors:   st.errs,
			ErrorsBy: st.errsBy,
		}
		rq := st.readRec.Percentiles(50, 99, 99.9)
		wq := st.writeRec.Percentiles(50, 99, 99.9)
		tr.Read = Quantiles{N: int(st.reads), P50: rq[0], P99: rq[1], P999: rq[2]}
		tr.Write = Quantiles{N: int(st.updates), P50: wq[0], P99: wq[1], P999: wq[2]}
		res.Tenants = append(res.Tenants, tr)
	}
	return res, err
}

// runPass soaks one fresh cluster through all phases of one pass.
func (e *Engine) runPass(ctx context.Context, pass int, states []*tenantState, res *Result) error {
	opts := *e.spec.Cluster
	if opts.DataDir != "" {
		// Every pass is a fresh cluster; give it a fresh disk too, so a
		// soak's later passes don't replay the previous pass's state.
		opts.DataDir = filepath.Join(opts.DataDir, fmt.Sprintf("pass%d", pass))
	}
	if opts.MDSDataDir != "" {
		opts.MDSDataDir = filepath.Join(opts.MDSDataDir, fmt.Sprintf("pass%d", pass))
	}
	c, err := ecfs.NewCluster(opts)
	if err != nil {
		return err
	}
	defer c.Close()
	span := int64(e.spec.Cluster.K * e.spec.Cluster.BlockSize)

	runs := make([]*tenantRun, len(states))
	for i, st := range states {
		tr, err := e.prepareTenant(ctx, c, i, st, pass, span)
		if err != nil {
			return fmt.Errorf("scenario: prepare %s: %w", st.name, err)
		}
		runs[i] = tr
	}

	events := schedule(e.spec, pass)
	epochs := make(map[uint64][]uint64)
	var ledger int64
	for phase := 0; phase < e.spec.Phases; phase++ {
		var phaseEvents []Event
		for _, ev := range events {
			if ev.Phase == phase {
				phaseEvents = append(phaseEvents, ev)
			}
		}
		if err := e.runPhase(ctx, c, runs, phase, phaseEvents); err != nil {
			return err
		}
		res.EventsFired += len(phaseEvents)
		if err := e.checkpoint(ctx, c, runs, epochs, &ledger, res); err != nil {
			return err
		}
	}
	res.RepairBytes += c.Scheduler().TotalSpentBytes()
	res.Restarts += int(e.restarts.Swap(0))
	res.ResilverKept += int(e.resKept.Swap(0))
	res.ResilverRebuilt += int(e.resRebuilt.Swap(0))
	res.ResilverDropped += int(e.resDropped.Swap(0))
	res.MDSRestarts += int(e.mdsRestarts.Swap(0))
	return nil
}

// prepareTenant sizes, generates, clamps, and phase-slices one tenant's
// trace, prepares its backing file, and wires the replayer hooks to the
// shadow, the scenario clock, and the per-class latency recorders.
func (e *Engine) prepareTenant(ctx context.Context, c *ecfs.Cluster, i int, st *tenantState, pass int, span int64) (*tenantRun, error) {
	// Heavy-tailed tenant sizes: tenant i gets ~1/(i+1) of the lead
	// tenant's ops and file bytes.
	ops := e.spec.Ops / (i + 1)
	if ops < 40 {
		ops = 40
	}
	fileSize := 48 * span / int64(i+1)
	if min := 4 * span; fileSize < min {
		fileSize = min
	}
	traceSeed := e.spec.Seed ^ int64(i+1)<<8 ^ int64(pass)<<20
	var t *trace.Trace
	switch i % 3 {
	case 0:
		t = trace.AliCloud(fileSize, ops, traceSeed)
	case 1:
		t = trace.TenCloud(fileSize, ops, traceSeed)
	case 2:
		t, _ = trace.MSR("src10", fileSize, ops, traceSeed)
	}
	for j := range t.Ops {
		if t.Ops[j].Size > e.spec.MaxOpSize {
			t.Ops[j].Size = e.spec.MaxOpSize
		}
	}

	rep := trace.NewReplayer(c, e.spec.Clients)
	rep.PerOpPayload(st.seed)
	f, err := rep.Prepare(ctx, fmt.Sprintf("%s-pass%d", st.name, pass), fileSize)
	if err != nil {
		return nil, err
	}
	sh := newShadow(f.Ino(), fileSize, span, st.seed)
	rep.Around = func(op trace.Op, do func() trace.OpResult) trace.OpResult {
		before := e.memClock.Load()
		checkable := func() bool {
			return before%2 == 0 && e.memClock.Load() == before
		}
		out := sh.bracket(op, do, checkable, e.noteViolation)
		e.clock.Add(1)
		if out.Err == nil {
			if op.Kind == trace.OpUpdate {
				st.writeRec.Observe(out.Lat)
			} else {
				st.readRec.Observe(out.Lat)
			}
		}
		return out
	}

	run := &tenantRun{st: st, f: f, sh: sh, rep: rep}
	n := len(t.Ops)
	for p := 0; p < e.spec.Phases; p++ {
		lo, hi := p*n/e.spec.Phases, (p+1)*n/e.spec.Phases
		run.phases = append(run.phases, &trace.Trace{Name: t.Name, FileSize: t.FileSize, Ops: t.Ops[lo:hi]})
	}
	return run, nil
}

// runPhase drives every tenant's phase slice concurrently while the
// event executor fires the phase's scheduled faults, then joins both.
func (e *Engine) runPhase(ctx context.Context, c *ecfs.Cluster, runs []*tenantRun, phase int, events []Event) error {
	e.clock.Store(0)
	var phaseOps int64
	for _, tr := range runs {
		phaseOps += int64(len(tr.phases[phase].Ops))
	}
	done := make(chan struct{})
	execErr := make(chan error, 1)
	go func() {
		execErr <- e.executeEvents(ctx, c, events, phaseOps, done)
	}()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, tr := range runs {
		wg.Add(1)
		go func(tr *tenantRun) {
			defer wg.Done()
			rres, rerr := tr.rep.Run(ctx, tr.phases[phase], tr.f)
			mu.Lock()
			defer mu.Unlock()
			tr.st.ops += rres.Ops
			tr.st.updates += rres.Updates
			tr.st.reads += rres.Reads
			tr.st.errs += rres.Errors
			for cls, n := range rres.ErrorsBy {
				if tr.st.errsBy == nil {
					tr.st.errsBy = make(map[trace.ErrClass]int64)
				}
				tr.st.errsBy[cls] += n
			}
			if rerr != nil && firstErr == nil && !tolerable(rres) {
				firstErr = fmt.Errorf("scenario: %s phase %d: %w", tr.st.name, phase, rerr)
			}
		}(tr)
	}
	wg.Wait()
	close(done)
	if err := <-execErr; err != nil {
		return err
	}
	return firstErr
}

// tolerable reports whether every error of a replay slice falls in a
// transient class a fault window legitimately produces. Anything else —
// data loss above all — fails the soak.
func tolerable(res *trace.ReplayResult) bool {
	if res.Errors == 0 {
		return true
	}
	for cls := range res.ErrorsBy {
		transient := false
		for _, t := range trace.TransientClasses {
			if cls == t {
				transient = true
				break
			}
		}
		if !transient {
			return false
		}
	}
	return true
}

// executeEvents fires the phase's events in timeline order, each when
// the scenario clock crosses its operation-fraction trigger (or the
// workload finishes first — late events still fire, against a quiet
// cluster).
func (e *Engine) executeEvents(ctx context.Context, c *ecfs.Cluster, events []Event, phaseOps int64, done <-chan struct{}) error {
	for _, ev := range events {
		e.waitClock(ctx, done, int64(ev.Frac*float64(phaseOps)), 0)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err := e.fire(ctx, c, ev, phaseOps, done); err != nil {
			return fmt.Errorf("scenario: event [%s]: %w", ev, err)
		}
	}
	return nil
}

// waitClock blocks until the phase clock reaches target ops, the
// workload finishes, the context dies, or (when positive) the fallback
// wall-clock budget expires.
func (e *Engine) waitClock(ctx context.Context, done <-chan struct{}, target int64, fallback time.Duration) {
	deadline := time.Now().Add(fallback)
	for e.clock.Load() < target {
		select {
		case <-ctx.Done():
			return
		case <-done:
			return
		case <-time.After(200 * time.Microsecond):
		}
		if fallback > 0 && time.Now().After(deadline) {
			return
		}
	}
}

// pickAlive deterministically reduces an event's target draw over the
// currently alive OSDs (sorted by id).
func pickAlive(c *ecfs.Cluster, pick uint64) *ecfs.OSD {
	alive := c.Alive()
	if len(alive) == 0 {
		return nil
	}
	sort.Slice(alive, func(i, j int) bool { return alive[i].ID() < alive[j].ID() })
	return alive[int(pick%uint64(len(alive)))]
}

// fire executes one fault event against the live cluster.
func (e *Engine) fire(ctx context.Context, c *ecfs.Cluster, ev Event, phaseOps int64, done <-chan struct{}) error {
	switch ev.Kind {
	case EventKillOSD, EventDrainCancelResume, EventKillRestart:
		e.memClock.Add(1)
		defer e.memClock.Add(1)
	}
	switch ev.Kind {
	case EventKillOSD:
		victim := pickAlive(c, ev.Pick)
		if victim == nil {
			return errors.New("no alive OSD to kill")
		}
		id := victim.ID()
		c.FailOSD(id)
		repl, err := c.SpawnOSD(c.MaxNodeID() + 1)
		if err != nil {
			return err
		}
		c.AddOSD(repl)
		if _, err := c.Recover(ctx, id, repl); err != nil {
			return fmt.Errorf("invariant no-lost-acknowledged-write: recovery after kill of %d: %w", id, err)
		}

	case EventDrainCancelResume:
		target := pickAlive(c, ev.Pick)
		if target == nil {
			return errors.New("no alive OSD to drain")
		}
		id := target.ID()
		dctx, cancel := context.WithCancel(ctx)
		go func() {
			// Cancel partway through: after Hold more ops, or a short
			// wall-clock fallback when the workload is already done.
			e.waitClock(dctx, done, e.clock.Load()+int64(ev.Hold*float64(phaseOps)), 25*time.Millisecond)
			cancel()
		}()
		_, err := c.Drain(dctx, id)
		cancel()
		switch {
		case err == nil:
			// Completed before the cancel landed — nothing to resume.
		case errors.Is(err, context.Canceled) && ctx.Err() == nil:
			if _, rerr := c.Drain(ctx, id); rerr != nil {
				return fmt.Errorf("drain resume on %d: %w", id, rerr)
			}
		default:
			return fmt.Errorf("drain on %d: %w", id, err)
		}
		// Rejoin: the drained (now empty) node re-enters the placement
		// pool as a rebind target for future repairs and drains.
		c.MDS.AddNode(id)
		c.MDS.Heartbeat(id, time.Now())

	case EventSlowDevice:
		target := pickAlive(c, ev.Pick)
		if target == nil {
			return errors.New("no alive OSD to slow")
		}
		target.Dev().SetSlowdown(ev.Param)
		e.waitClock(ctx, done, e.clock.Load()+int64(ev.Hold*float64(phaseOps)), 0)
		target.Dev().SetSlowdown(1)

	case EventCapRebase:
		c.SetRebuildCap(ev.Param)

	case EventKillRestart:
		victim := pickAlive(c, ev.Pick)
		if victim == nil {
			return errors.New("no alive OSD to kill-restart")
		}
		id := victim.ID()
		c.CrashOSD(id)
		// Outage window: traffic keeps running against the degraded
		// cluster (ops that need the dead node fail transiently and heal
		// at the next checkpoint).
		e.waitClock(ctx, done, e.clock.Load()+int64(ev.Hold*float64(phaseOps)), 25*time.Millisecond)
		_, rres, err := c.RestartOSD(ctx, id)
		if err != nil {
			return fmt.Errorf("invariant no-lost-acknowledged-write: restart of %d: %w", id, err)
		}
		e.restarts.Add(1)
		e.resKept.Add(int64(rres.Kept))
		e.resRebuilt.Add(int64(rres.Rebuilt))
		e.resDropped.Add(int64(rres.Dropped))

	case EventMDSRestart:
		// Crash the metadata server; ops that need a namespace lookup
		// fail transiently for the outage window, then the MDS reopens
		// from its op log under the same identity. No memClock bracket:
		// membership is unchanged, and MDS-outage failures are transient
		// classes the checkpoint heals. The restarted MDS must serve the
		// exact pre-crash namespace or the checkpoint's shadow compare
		// and epoch-monotonicity checks fail the soak.
		if err := c.CrashMDS(); err != nil {
			return fmt.Errorf("mds crash: %w", err)
		}
		e.waitClock(ctx, done, e.clock.Load()+int64(ev.Hold*float64(phaseOps)), 25*time.Millisecond)
		if _, err := c.RestartMDS(); err != nil {
			return fmt.Errorf("invariant namespace-survives-crash: mds restart: %w", err)
		}
		e.mdsRestarts.Add(1)

	default:
		return fmt.Errorf("unknown event kind %d", ev.Kind)
	}
	return nil
}

// checkpoint runs the invariant suite against a quiesced cluster: heal
// failed updates, flush strategy logs, scrub parity, compare every
// tenant's file to its shadow, and check epoch and ledger monotonicity.
func (e *Engine) checkpoint(ctx context.Context, c *ecfs.Cluster, runs []*tenantRun, epochs map[uint64][]uint64, ledger *int64, res *Result) error {
	cli := c.NewClient()
	for _, tr := range runs {
		f, err := cli.Open(ctx, tr.f.Name())
		if err != nil {
			return fmt.Errorf("scenario: checkpoint open %s: %w", tr.st.name, err)
		}
		n, err := tr.sh.heal(ctx, f)
		if err != nil {
			return err
		}
		res.Healed += n
	}
	if err := c.Flush(ctx); err != nil {
		return fmt.Errorf("scenario: checkpoint flush: %w", err)
	}
	n, err := c.Scrub()
	if err != nil {
		return fmt.Errorf("invariant parity-consistency: %w", err)
	}
	res.StripesScrubbed += n
	for _, tr := range runs {
		if err := c.VerifyStripes(tr.f, tr.sh.data); err != nil {
			return fmt.Errorf("invariant no-lost-acknowledged-write (%s): %w", tr.st.name, err)
		}
	}
	for _, tr := range runs {
		ino := tr.f.Ino()
		stripes := c.MDS.Stripes(ino)
		prev := epochs[ino]
		for s := 0; s < stripes; s++ {
			loc, err := c.MDS.Lookup(ino, uint32(s))
			if err != nil {
				return fmt.Errorf("scenario: checkpoint lookup %s stripe %d: %w", tr.st.name, s, err)
			}
			if s < len(prev) {
				if loc.Epoch < prev[s] {
					return fmt.Errorf("invariant epoch-monotonicity (%s): stripe %d epoch regressed %d -> %d",
						tr.st.name, s, prev[s], loc.Epoch)
				}
				prev[s] = loc.Epoch
			} else {
				prev = append(prev, loc.Epoch)
			}
		}
		epochs[ino] = prev
	}
	cur := c.Scheduler().TotalSpentBytes()
	if cur < *ledger {
		return fmt.Errorf("invariant ledger-monotonicity: scheduler spent bytes regressed %d -> %d", *ledger, cur)
	}
	*ledger = cur
	res.Checkpoints++
	if err := e.takeViolation(); err != nil {
		return fmt.Errorf("invariant no-lost-acknowledged-write (live read): %w", err)
	}
	return nil
}
