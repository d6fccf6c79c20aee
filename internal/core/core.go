// Package core ties the EventSpace pieces together behind one façade
// (figure 2): a System owns a virtual testbed, builds instrumented
// collective spanning trees over it, wires the per-host coscheduling
// controllers into every collective wrapper, attaches monitors, and runs
// workloads. The root package eventspace re-exports this API.
package core

import (
	"fmt"
	"sync"
	"time"

	"eventspace/internal/archive"
	"eventspace/internal/checkpoint"
	"eventspace/internal/cluster"
	"eventspace/internal/collect"
	"eventspace/internal/cosched"
	"eventspace/internal/escope"
	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/monitor"
	"eventspace/internal/paths"
	"eventspace/internal/query"
	"eventspace/internal/reconfig"
	"eventspace/internal/vclock"
	"eventspace/internal/vnet"
)

// System is one EventSpace instance: a testbed plus the trees, monitors
// and coscheduling controllers living on it.
type System struct {
	tb *cluster.Testbed
	cs *cosched.Set

	mu       sync.Mutex
	trees    map[string]*cluster.Tree
	monitors []interface{ Stop() }
	closed   bool
	met      *metrics.Registry
}

// New builds a system over the given testbed specification. The strategy
// selects how monitor analysis threads are coscheduled with the
// application (cosched.None disables coscheduling).
func New(spec cluster.TestbedSpec, strategy cosched.Strategy) (*System, error) {
	tb, err := cluster.NewTestbed(spec)
	if err != nil {
		return nil, err
	}
	return &System{
		tb:    tb,
		cs:    cosched.NewSet(strategy),
		trees: make(map[string]*cluster.Tree),
	}, nil
}

// Testbed exposes the underlying virtual testbed.
func (s *System) Testbed() *cluster.Testbed { return s.tb }

// Cosched exposes the coscheduling controller set.
func (s *System) Cosched() *cosched.Set { return s.cs }

// UseMetrics installs a self-metrics registry: every tree built and
// monitor attached afterwards is wired into it unless its spec/config
// carries its own. nil disables.
func (s *System) UseMetrics(reg *metrics.Registry) {
	s.mu.Lock()
	s.met = reg
	s.mu.Unlock()
}

// Metrics returns the installed self-metrics registry (nil when self
// metrics are off).
func (s *System) Metrics() *metrics.Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.met
}

// BuildTree builds a spanning tree over the testbed, wiring the system's
// coscheduling controllers into its collective wrappers.
func (s *System) BuildTree(spec cluster.TreeSpec) (*cluster.Tree, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("core: system closed")
	}
	if _, ok := s.trees[spec.Name]; ok {
		return nil, fmt.Errorf("core: tree %q already exists", spec.Name)
	}
	if spec.Notifier == nil {
		spec.Notifier = func(h *vnet.Host) paths.CollectiveNotifier { return s.cs.For(h) }
	}
	if spec.Metrics == nil {
		spec.Metrics = s.met
	}
	tree, err := cluster.BuildTree(s.tb, spec)
	if err != nil {
		return nil, err
	}
	s.trees[spec.Name] = tree
	return tree, nil
}

// adopt puts a started monitor under the system's Close.
func (s *System) adopt(m interface{ Stop() }) {
	s.mu.Lock()
	s.monitors = append(s.monitors, m)
	s.mu.Unlock()
}

// AttachLoadBalance builds and starts a load-balance monitor over tree.
func (s *System) AttachLoadBalance(tree *cluster.Tree, mode monitor.LoadBalanceMode, cfg monitor.Config) (*monitor.LoadBalance, error) {
	if cfg.Metrics == nil {
		cfg.Metrics = s.Metrics()
	}
	lb, err := monitor.NewLoadBalance(s.tb, tree, mode, cfg, s.cs)
	if err != nil {
		return nil, err
	}
	lb.Start()
	s.adopt(lb)
	return lb, nil
}

// AttachStatsm builds and starts the statistics monitor over tree.
func (s *System) AttachStatsm(tree *cluster.Tree, cfg monitor.Config) (*monitor.Statsm, error) {
	return s.attachStatsm(tree, cfg, nil)
}

// attachStatsm starts a statistics monitor whose published analysis
// tree begins at seed (nil: empty).
func (s *System) attachStatsm(tree *cluster.Tree, cfg monitor.Config, seed *monitor.AnalysisTree) (*monitor.Statsm, error) {
	if cfg.Metrics == nil {
		cfg.Metrics = s.Metrics()
	}
	sm, err := monitor.NewStatsmFrom(s.tb, tree, cfg, s.cs, seed)
	if err != nil {
		return nil, err
	}
	sm.Start()
	s.adopt(sm)
	return sm, nil
}

// AttachReconfig subscribes a runtime tree-repair manager to a monitor's
// event scope: a dead cluster gateway triggers re-parenting of its
// orphaned hosts onto surviving gateways, or promotion of one of its own
// members, without restarting the monitor. The monitor must have been
// built with a HealthPolicy. The manager is stopped with the system.
func (s *System) AttachReconfig(lb *monitor.LoadBalance, pol reconfig.Policy) (*reconfig.Manager, error) {
	if pol.Metrics == nil {
		pol.Metrics = s.Metrics()
	}
	m, err := reconfig.Attach(lb.Scope(), pol)
	if err != nil {
		return nil, err
	}
	s.adopt(m)
	return m, nil
}

// FailoverLoadBalance replaces a lost front-end's load-balance monitor:
// the dead monitor's state is rebuilt deterministically from its sealed
// trace archive (dir) — through the same checkpoint ladder
// RecoverLoadBalance rides, when the recorder left a chain — and a
// replacement single-scope monitor seeded from that state is built and
// started. The replacement's source cursors start after the newest
// retained tuple and its joins ignore rounds the archive already
// completed, so no round is lost or counted twice. Call it at a
// workload quiesce point, after sealing the old archive
// (ArchiveRecorder.Stop).
func (s *System) FailoverLoadBalance(tree *cluster.Tree, cfg monitor.Config, dir string) (*monitor.LoadBalance, *reconfig.FailoverState, error) {
	st, err := reconfig.RebuildFrontEnd(dir, s.Metrics())
	if err != nil {
		return nil, nil, err
	}
	return s.loadBalanceFrom(tree, cfg, st)
}

// RecoverLoadBalance is FailoverLoadBalance for a crashed front end:
// the dead monitor's state is rebuilt through the checkpoint recovery
// ladder (reconfig.RecoverFrontEnd) — newest valid checkpoint plus
// archive suffix, falling back to full replay when the chain is torn —
// and a replacement single-scope monitor is seeded from it. alerts,
// when given, must be the crashed recorder's standing statements; the
// returned state then carries the recovered query-engine snapshot for
// ResumeArchive. Unlike the clean-seal path, the replacement
// re-reads the retained trace windows (the crash left a gather gap),
// with the resume floors blocking any double count.
func (s *System) RecoverLoadBalance(tree *cluster.Tree, cfg monitor.Config, dir string, alerts ...string) (*monitor.LoadBalance, *reconfig.FailoverState, error) {
	stmts, err := parseAlerts(alerts)
	if err != nil {
		return nil, nil, err
	}
	st, err := reconfig.RecoverFrontEnd(dir, s.Metrics(), stmts)
	if err != nil {
		return nil, nil, err
	}
	return s.loadBalanceFrom(tree, cfg, st)
}

// loadBalanceFrom builds and starts the replacement single-scope
// monitor a failover or recovery handoff seeds.
func (s *System) loadBalanceFrom(tree *cluster.Tree, cfg monitor.Config, st *reconfig.FailoverState) (*monitor.LoadBalance, *reconfig.FailoverState, error) {
	if cfg.Metrics == nil {
		cfg.Metrics = s.Metrics()
	}
	lb, err := monitor.NewLoadBalanceFrom(s.tb, tree, monitor.SingleScope, cfg, s.cs, st.Resume)
	if err != nil {
		return nil, nil, err
	}
	lb.Start()
	s.adopt(lb)
	return lb, st, nil
}

// FailoverStatsm is FailoverLoadBalance's statistics counterpart: a
// replacement statistics monitor whose published analysis tree starts
// from the archive-replayed snapshot in st.
func (s *System) FailoverStatsm(tree *cluster.Tree, cfg monitor.Config, st *reconfig.FailoverState) (*monitor.Statsm, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil failover state")
	}
	return s.attachStatsm(tree, cfg, st.Stats)
}

// ArchiveRecorder records a tree's raw trace tuples into a persistent
// archive: its own event scope over every trace buffer, pulled by a
// gather thread whose sink is the archive writer. It rides alongside
// the live monitors — PastSet cursors are independent, so recording
// does not steal tuples from them.
type ArchiveRecorder struct {
	scope  *escope.Scope
	puller *escope.Puller
	writer *archive.Writer
	// sink is what gathered batches are appended through: the writer
	// directly, or a continuous-query engine interposed in front of it
	// (AttachArchive with alerts). The final drain in Stop uses the same
	// sink, so standing queries see every tuple the archive records.
	sink   escope.RawSink
	engine *query.Engine
	ckpt   *checkpoint.Checkpointer

	stopOnce sync.Once
	stopErr  error
}

// AttachArchive builds and starts a trace recorder over an instrumented
// tree: the collector metadata sidecar is written into the archive
// directory (so offline tooling can replay without the live registry),
// and a puller drains every event collector's trace buffer into the
// archive every pull interval (0 pulls continuously).
//
// With alerts, each esql alert statement is parsed, registered with a
// query.Engine interposed between the gather thread and the archive
// writer, and evaluated against every batch the recorder archives.
// Fired alerts are archived as OpAlert control tuples in firing order;
// replaying the archived data tuples through the same statements
// (query.Replay, esquery replay -alerts) regenerates the identical
// stream. The engine's coverage() roster is the tree's collector set.
func (s *System) AttachArchive(tree *cluster.Tree, pull time.Duration, opts archive.Options, alerts ...string) (*ArchiveRecorder, error) {
	return s.attachArchive(tree, pull, opts, recorderSpec{alerts: alerts})
}

// AttachArchiveCheckpointed is AttachArchive plus crash recoverability:
// a checkpointer rides the recorder's sink chain, periodically
// snapshotting the front-end state the archive implies — the
// load-balance and statistics replay shadow, the writer's durable
// cursor, and the standing-query engine — into a sidecar chain of
// ckpt-*.eckpt files next to the segments.
// After a crash, RecoverLoadBalance (or reconfig.RecoverFrontEnd)
// restores from the newest valid checkpoint and replays only the
// archive suffix behind it, instead of the whole archive.
func (s *System) AttachArchiveCheckpointed(tree *cluster.Tree, pull time.Duration, opts archive.Options, ckpt checkpoint.Config, alerts ...string) (*ArchiveRecorder, error) {
	return s.attachArchive(tree, pull, opts, recorderSpec{alerts: alerts, ckpt: &ckpt})
}

func parseAlerts(alerts []string) ([]*query.Stmt, error) {
	stmts := make([]*query.Stmt, 0, len(alerts))
	for _, src := range alerts {
		st, err := query.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("core: %v", err)
		}
		if !st.Alert {
			return nil, fmt.Errorf("core: %q is not an alert statement", src)
		}
		stmts = append(stmts, st)
	}
	return stmts, nil
}

// ResumeArchive is AttachArchive for the recorder that continues a
// crashed or sealed recorder's run after a front-end failover, seeded
// from the recovery handoff. Its source cursors follow the handoff:
// after a clean-seal failover they start after the newest retained
// tuple, so tuples the sealed archive already holds are not archived
// again; after a checkpointed crash recovery (Resume.ReRead) the
// retained trace windows are re-read, so the gather gap the crash opened
// is re-archived. Point opts.Dir at a fresh directory; scanning the old
// and resumed archives in sequence then covers the whole run. With
// alert statements, the new engine is restored from the handoff's
// recovered engine state, so alert streaks continue mid-streak instead
// of restarting cold. ckpt, when non-nil, checkpoints the resumed
// recorder too.
func (s *System) ResumeArchive(tree *cluster.Tree, pull time.Duration, opts archive.Options, st *reconfig.FailoverState, ckpt *checkpoint.Config, alerts ...string) (*ArchiveRecorder, error) {
	if st == nil || st.Resume == nil {
		return nil, fmt.Errorf("core: nil failover state")
	}
	if len(alerts) == 0 && st.Engine != nil {
		return nil, fmt.Errorf("core: recovered engine state but no alert statements to restore it into")
	}
	return s.attachArchive(tree, pull, opts, recorderSpec{
		fromEnd: !st.Resume.ReRead,
		alerts:  alerts,
		engine:  st.Engine,
		ckpt:    ckpt,
	})
}

// recorderSpec collects attachArchive's variants: failover resume
// (fromEnd), standing alert statements (alerts), a recovered engine
// snapshot to restore into them (engine), and checkpointing (ckpt).
type recorderSpec struct {
	fromEnd bool
	alerts  []string
	engine  *query.EngineState
	ckpt    *checkpoint.Config
}

func (s *System) attachArchive(tree *cluster.Tree, pull time.Duration, opts archive.Options, spec recorderSpec) (*ArchiveRecorder, error) {
	if !tree.Spec.Instrument {
		return nil, fmt.Errorf("core: archive recorder needs an instrumented tree")
	}
	stmts, err := parseAlerts(spec.alerts)
	if err != nil {
		return nil, err
	}
	if opts.Metrics == nil {
		opts.Metrics = s.Metrics()
	}
	w, err := archive.Create(opts)
	if err != nil {
		return nil, err
	}
	meta := archive.MetaFromRegistry(tree.Collectors)
	if err := archive.WriteMeta(opts.Dir, meta); err != nil {
		w.Close()
		return nil, err
	}
	escSpec := escope.Spec{
		Name:     "archive/" + tree.Name,
		FrontEnd: s.tb.FrontEnd,
		Metrics:  opts.Metrics,
	}
	for _, ec := range tree.Collectors.All() {
		escSpec.Sources = append(escSpec.Sources, escope.Source{
			Host: ec.Host(), Elem: ec.Buffer(), RecSize: collect.TupleSize,
			FromEnd: spec.fromEnd,
		})
	}
	scope, err := escope.Build(s.tb.Net, escSpec)
	if err != nil {
		w.Close()
		return nil, err
	}
	rec := &ArchiveRecorder{scope: scope, writer: w, sink: w}
	fail := func(err error) (*ArchiveRecorder, error) {
		scope.Close()
		w.Close()
		return nil, err
	}
	if len(stmts) > 0 {
		eng := query.NewEngine(w)
		eng.SetExpected(len(tree.Collectors.All()))
		eng.UseMetrics(opts.Metrics, tree.Name)
		for _, st := range stmts {
			if err := eng.Register(st); err != nil {
				return fail(err)
			}
		}
		if spec.engine != nil {
			if err := eng.Restore(*spec.engine); err != nil {
				return fail(err)
			}
		}
		rec.engine = eng
		rec.sink = eng
	}
	if spec.ckpt != nil {
		cfg := *spec.ckpt
		if cfg.Metrics == nil {
			cfg.Metrics = opts.Metrics
		}
		if cfg.CrashPoints == nil {
			cfg.CrashPoints = opts.CrashPoints
		}
		// The checkpointer interposes at the head of the sink chain
		// (puller -> checkpointer -> engine -> writer): it forwards each
		// batch downstream first, then folds it into its shadows, so a
		// snapshot taken at the writer's durable cursor has seen exactly
		// the tuples the archive holds.
		ck, err := checkpoint.New(w, rec.sink, rec.engine, meta, cfg)
		if err != nil {
			return fail(err)
		}
		rec.ckpt = ck
		rec.sink = ck
	}
	rec.puller = scope.StartPuller(pull, escope.ArchiveSink(rec.sink))
	s.adopt(rec)
	return rec, nil
}

// RecordModes wires a load-balance monitor's degradation-ladder
// transitions into this archive as control tuples: every mode change —
// past ones included, via the hook's backlog replay — is appended
// alongside the trace tuples, so archive replay reproduces a degraded
// run's mode history byte-identically. Writer appends are serialized
// internally, so the hook is safe against the recorder's own puller.
func (r *ArchiveRecorder) RecordModes(lb *monitor.LoadBalance) {
	lb.SetScopeModeHook(func(ch escope.ModeChange) {
		// A failing append surfaces through the writer's own error
		// state at seal time; the mode hook must not block or panic.
		_ = r.writer.Append([]collect.TraceTuple{monitor.EncodeModeChange(ch)})
	})
}

// Alerts returns the alerts the recorder's standing queries have fired
// so far, in firing order (nil without alert statements).
func (r *ArchiveRecorder) Alerts() []collect.AlertTuple {
	if r.engine == nil {
		return nil
	}
	return r.engine.Alerts()
}

// Stop halts the recorder: the gather thread is stopped, one final pull
// drains what the buffers still hold, and the archive is sealed. It is
// idempotent; later calls return the first stop's error.
func (r *ArchiveRecorder) Stop() {
	r.stopOnce.Do(func() {
		r.puller.Stop()
		// The final drain performs modelled network work, and Stop may be
		// the only thing left running (a driver stopping the recorder
		// after the workload). An unregistered goroutine must not execute
		// model operations — its sleeps would corrupt the runnable count
		// and stall the clock — so the pull runs as a model goroutine and
		// the driver parks on an ordinary channel.
		done := make(chan struct{})
		vclock.Go(func() {
			defer close(done)
			rep, err := r.scope.Pull(&paths.Ctx{Thread: r.scope.Name() + "/final"})
			if err == nil && len(rep.Data) > 0 {
				// The drain goes through the same sink as the puller, so
				// standing queries evaluate the final batch too.
				if err := r.sink.AppendRaw(rep.Data); err != nil {
					r.stopErr = err
				}
			}
		})
		<-done
		if r.ckpt != nil {
			// A final forced checkpoint right before the seal: recovery
			// from a cleanly stopped archive then replays (almost) no
			// suffix. An injected checkpoint crash surfaces here like any
			// stop error; the seal still proceeds so the archive itself
			// stays replayable. Checkpoint settles the checkpointer's job
			// in flight on every path, error or not, so nothing appends to
			// the writer after the Close below.
			if err := r.ckpt.Checkpoint(); err != nil && r.stopErr == nil {
				r.stopErr = err
			}
		}
		r.scope.Close()
		if err := r.writer.Close(); err != nil && r.stopErr == nil {
			r.stopErr = err
		}
	})
}

// Err returns the first error encountered while stopping the recorder
// (nil before Stop and after a clean stop).
func (r *ArchiveRecorder) Err() error { return r.stopErr }

// Close stops every monitor and closes every tree.
func (s *System) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	monitors := s.monitors
	trees := make([]*cluster.Tree, 0, len(s.trees))
	for _, t := range s.trees {
		trees = append(trees, t)
	}
	s.mu.Unlock()
	for _, m := range monitors {
		m.Stop()
	}
	for _, t := range trees {
		t.Close()
	}
	s.cs.CloseAll()
}

// Workload drives a system's trees from application threads, mirroring
// the paper's micro-benchmarks: with Compute == 0 it is gsum; with
// Compute > 0 it is compute-gsum.
type Workload struct {
	// Trees the threads operate on: every thread calls one allreduce per
	// iteration, on Trees[iteration % len(Trees)].
	Trees []*cluster.Tree
	// Iterations per thread (with n trees, each completes 1/n of them).
	Iterations int
	// Compute is the per-iteration modelled computation (compute-gsum).
	Compute time.Duration
	// Delay, when set, is an injected per-thread, per-iteration stall
	// before contributing — the straggler examples use it to create the
	// load imbalance the monitor should expose.
	Delay func(thread, iteration int) time.Duration
}

// RunWorkload executes the workload and returns the modelled duration of
// the run, or the first error a collective returned. The threads line up
// at a gate and a registered starter stamps the virtual clock as it opens
// it, so idle clock jumps between phases (a monitor's pacing timers firing
// during set-up) never leak into the measurement.
func (s *System) RunWorkload(wl Workload) (time.Duration, error) {
	if len(wl.Trees) == 0 {
		return 0, fmt.Errorf("core: workload has no trees")
	}
	if wl.Iterations <= 0 {
		return 0, fmt.Errorf("core: workload iterations %d", wl.Iterations)
	}
	ports := wl.Trees[0].Ports
	for _, tr := range wl.Trees[1:] {
		if len(tr.Ports) != len(ports) {
			return 0, fmt.Errorf("core: trees have differing thread counts")
		}
	}
	var wg sync.WaitGroup
	gate := vclock.NewEvent()
	var mu sync.Mutex
	var startNS, endNS int64
	var failOnce sync.Once
	var firstErr error
	for pi := range ports {
		pi := pi
		wg.Add(1)
		vclock.Go(func() {
			defer wg.Done()
			gate.Wait()
			ctx := &paths.Ctx{Thread: ports[pi].Name}
			for it := 0; it < wl.Iterations; it++ {
				if wl.Delay != nil {
					if d := wl.Delay(pi, it); d > 0 {
						hrtime.Sleep(d)
					}
				}
				if wl.Compute > 0 {
					ports[pi].Host.Occupy(wl.Compute)
				}
				// "Threads alternate between using two identical allreduce
				// trees": the collective call frequency does not depend on
				// the tree count (the sections 6.2/6.3 scalability results).
				tr := wl.Trees[it%len(wl.Trees)]
				if _, err := tr.Ports[pi].Entry.Op(ctx, paths.Request{Kind: paths.OpWrite, Value: int64(pi)}); err != nil {
					// The collective is broken for every thread: release
					// the ones still waiting in it for this one.
					failOnce.Do(func() {
						firstErr = err
						for _, tr := range wl.Trees {
							tr.Abort(err)
						}
					})
					return
				}
			}
			now := hrtime.Now()
			mu.Lock()
			if now > endNS {
				endNS = now
			}
			mu.Unlock()
		})
	}
	vclock.Go(func() {
		startNS = hrtime.Now()
		gate.Fire(nil, nil)
	})
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	return time.Duration(endNS - startNS), nil
}

// RunVirtual executes fn under the discrete-event virtual clock — the one
// place the process-global clock is switched on — so modelled delays cost
// no real time; it quiesces and disables the clock afterwards. All Systems
// used inside fn must be created and closed inside fn.
func RunVirtual(fn func() error) error {
	vclock.Enable(0)
	defer func() {
		vclock.Quiesce(10 * time.Second)
		vclock.Disable()
	}()
	return fn()
}
