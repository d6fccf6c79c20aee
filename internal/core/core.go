// Package core ties the EventSpace pieces together behind one façade
// (figure 2): a System owns a virtual testbed, builds instrumented
// collective spanning trees over it, wires the per-host coscheduling
// controllers into every collective wrapper, attaches monitors, and runs
// workloads. The root package eventspace re-exports this API.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
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

	// Front ends Recover rebuilt, and how many of those started from a
	// checkpoint; kept apart from the system so a registry reading them
	// keeps only them alive.
	recoveries, checkpointed *atomic.Uint64
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
		tb:           tb,
		cs:           cosched.NewSet(strategy),
		trees:        make(map[string]*cluster.Tree),
		recoveries:   new(atomic.Uint64),
		checkpointed: new(atomic.Uint64),
	}, nil
}

// Testbed exposes the underlying virtual testbed.
func (s *System) Testbed() *cluster.Testbed { return s.tb }

// Cosched exposes the coscheduling controller set.
func (s *System) Cosched() *cosched.Set { return s.cs }

// UseMetrics installs a self-metrics registry: every tree built and
// monitor attached afterwards is wired into it unless its spec/config
// carries its own, and it reads the system's recovery counts. nil
// disables.
func (s *System) UseMetrics(reg *metrics.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if reg == s.met {
		return
	}
	s.met = reg
	reg.Count("reconfig.recoveries", s.recoveries)
	reg.Count("reconfig.recoveries.checkpointed", s.checkpointed)
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
	return s.attachLoadBalance(tree, mode, cfg, nil)
}

// attachLoadBalance starts a load-balance monitor that continues resume
// (nil: starts empty).
func (s *System) attachLoadBalance(tree *cluster.Tree, mode monitor.LoadBalanceMode, cfg monitor.Config, resume *monitor.LoadBalanceResume) (*monitor.LoadBalance, error) {
	if cfg.Metrics == nil {
		cfg.Metrics = s.Metrics()
	}
	lb, err := monitor.NewLoadBalance(s.tb, tree, mode, cfg, s.cs, resume)
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
	sm, err := monitor.NewStatsm(s.tb, tree, cfg, s.cs, seed)
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

// PipelineSpec names what Recover starts over a rebuilt front end. A nil
// LoadBalance, Statsm or Archive leaves that part out.
type PipelineSpec struct {
	// Tree is the instrumented tree the lost front end monitored.
	Tree *cluster.Tree
	// LoadBalance configures a single-scope load-balance monitor that
	// continues the replayed weighted tree.
	LoadBalance *monitor.Config
	// Statsm configures a statistics monitor whose published analysis
	// tree starts from the replayed one.
	Statsm *monitor.Config
	// Archive configures a recorder that continues the recording into
	// Archive.Dir, a fresh directory: scanning the old directory and
	// then the new one covers the whole run. It pulls every Pull (0:
	// continuously) and checkpoints with the default checkpoint.Config,
	// so a second loss recovers from its chain too.
	Archive *archive.Options
	Pull    time.Duration
	// Alerts are the lost recorder's standing alert statements. The
	// replay advances their engine state and the resumed recorder
	// restores it, so alert streaks continue mid-streak.
	Alerts []string
	// Sealed reports that the lost recorder stopped cleanly (its Err was
	// nil): its archive already holds every tuple the trace buffers
	// retain, so the resumed recorder starts after them. Otherwise it
	// re-reads them, closing the gather gap a crash opened.
	Sealed bool
}

// Pipeline is what Recover rebuilt and started; a part the spec left out
// is nil.
type Pipeline struct {
	// State is the rebuilt handoff: rounds recovered, the ladder rung
	// taken and the repair context the archive reader surfaced.
	State       *reconfig.FailoverState
	LoadBalance *monitor.LoadBalance
	Statsm      *monitor.Statsm
	Recorder    *ArchiveRecorder
}

// Recover rebuilds a lost front end from its archive in dir and starts
// what spec names over spec.Tree. The rebuild is the checkpoint ladder,
// reconfig.RecoverFrontEnd: the newest valid checkpoint plus the archive
// suffix behind it, falling back rung by rung to a full replay. The
// replacement load-balance monitor re-reads the retained trace windows,
// and its joins drop every round at or below the replayed per-node
// floors, so no round is lost or counted twice whether the old front end
// crashed or sealed cleanly. Call it at a workload quiesce point, after
// stopping the old monitors and recorder.
//
// The alert statements are parsed before anything is rebuilt. If a
// later step fails, Recover stops what it already started and returns
// the error, so a retry finds the monitors' buffer names free.
func (s *System) Recover(dir string, spec PipelineSpec) (*Pipeline, error) {
	stmts, err := parseAlerts(spec.Alerts)
	if err != nil {
		return nil, err
	}
	st, err := reconfig.RecoverFrontEnd(dir, s.Metrics(), stmts)
	if err != nil {
		return nil, err
	}
	s.recoveries.Add(1)
	if st.Checkpointed {
		s.checkpointed.Add(1)
	}
	p := &Pipeline{State: st}
	fail := func(err error) (*Pipeline, error) {
		if p.Statsm != nil {
			p.Statsm.Stop()
		}
		if p.LoadBalance != nil {
			p.LoadBalance.Stop()
		}
		return nil, err
	}
	if spec.LoadBalance != nil {
		if p.LoadBalance, err = s.attachLoadBalance(spec.Tree, monitor.SingleScope, *spec.LoadBalance, st.Resume); err != nil {
			return fail(err)
		}
	}
	if spec.Statsm != nil {
		if p.Statsm, err = s.attachStatsm(spec.Tree, *spec.Statsm, st.Stats); err != nil {
			return fail(err)
		}
	}
	if spec.Archive != nil {
		p.Recorder, err = s.attachArchive(spec.Tree, spec.Pull, *spec.Archive, recorderSpec{
			fromEnd: spec.Sealed,
			stmts:   stmts,
			engine:  st.Engine,
		})
		if err != nil {
			return fail(err)
		}
	}
	return p, nil
}

// ArchiveRecorder records a tree's raw trace tuples into a persistent
// archive: its own event scope over every trace buffer, pulled by a
// gather thread whose sink chain ends at the archive writer. It rides
// alongside the live monitors — PastSet cursors are independent, so
// recording does not steal tuples from them. Every recorder checkpoints:
// a checkpointer heads its sink chain, so the front end it implies can
// be rebuilt from the newest checkpoint after a crash.
type ArchiveRecorder struct {
	scope  *escope.Scope
	puller *escope.Puller
	writer *archive.Writer
	engine *query.Engine
	// ckpt heads the chain gathered batches are appended through:
	// checkpointer -> engine (with alerts) -> writer. The final drain in
	// Stop enters it too, so standing queries see every tuple the
	// archive records.
	ckpt *checkpoint.Checkpointer

	stopOnce sync.Once
	stopErr  error
}

// AttachArchiveCheckpointed builds and starts a trace recorder over an
// instrumented tree: the collector metadata sidecar is written into the
// archive directory (so offline tooling can replay without the live
// registry), and a puller drains every event collector's trace buffer
// into the archive every pull interval (0 pulls continuously).
//
// A checkpointer rides the recorder's sink chain, periodically
// snapshotting the front-end state the archive implies — the
// load-balance and statistics replay shadow, the writer's durable
// cursor, and the standing-query engine — into a sidecar chain of
// ckpt-*.eckpt files next to the segments. After a crash, Recover (or
// reconfig.RecoverFrontEnd) restores from the newest valid checkpoint
// and replays only the archive suffix behind it, instead of the whole
// archive.
//
// With alerts, each esql alert statement is parsed, registered with a
// query.Engine interposed in front of the archive writer, and evaluated
// against every batch the recorder archives. Fired alerts are archived
// as OpAlert control tuples in firing order; replaying the archived
// data tuples through the same statements (query.Replay, esquery replay
// -alerts) regenerates the identical stream. The engine's coverage()
// roster is the tree's collector set.
func (s *System) AttachArchiveCheckpointed(tree *cluster.Tree, pull time.Duration, opts archive.Options, ckpt checkpoint.Config, alerts ...string) (*ArchiveRecorder, error) {
	stmts, err := parseAlerts(alerts)
	if err != nil {
		return nil, err
	}
	return s.attachArchive(tree, pull, opts, recorderSpec{stmts: stmts, ckpt: ckpt})
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

// recorderSpec collects attachArchive's variants: a recovered recorder
// that starts after the retained windows (fromEnd), standing alert
// statements (stmts), a recovered engine snapshot to restore into them
// (engine), and the checkpoint cadence (ckpt).
type recorderSpec struct {
	fromEnd bool
	stmts   []*query.Stmt
	engine  *query.EngineState
	ckpt    checkpoint.Config
}

func (s *System) attachArchive(tree *cluster.Tree, pull time.Duration, opts archive.Options, spec recorderSpec) (*ArchiveRecorder, error) {
	if !tree.Spec.Instrument {
		return nil, fmt.Errorf("core: archive recorder needs an instrumented tree")
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
	rec := &ArchiveRecorder{scope: scope, writer: w}
	var sink query.Sink = w
	fail := func(err error) (*ArchiveRecorder, error) {
		scope.Close()
		w.Close()
		return nil, err
	}
	if len(spec.stmts) > 0 {
		eng := query.NewEngine(w)
		eng.SetExpected(len(tree.Collectors.All()))
		eng.UseMetrics(opts.Metrics, tree.Name)
		for _, st := range spec.stmts {
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
		sink = eng
	}
	cfg := spec.ckpt
	if cfg.Metrics == nil {
		cfg.Metrics = opts.Metrics
	}
	if cfg.CrashPoints == nil {
		cfg.CrashPoints = opts.CrashPoints
	}
	// The checkpointer interposes at the head of the sink chain
	// (puller -> checkpointer -> engine -> writer): it folds each batch
	// into its shadows beside forwarding it downstream, and settles the
	// fold before it begins a frame at the writer's durable cursor, so
	// a snapshot has seen exactly the tuples the archive holds.
	if rec.ckpt, err = checkpoint.New(w, sink, rec.engine, meta, cfg); err != nil {
		return fail(err)
	}
	rec.puller = scope.StartPuller(pull, func(rep paths.Reply) error { return rec.ckpt.AppendRaw(rep.Data) })
	s.adopt(rec)
	return rec, nil
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
		// called by a driver (stopping the recorder after the workload),
		// which must not execute model operations: the pull runs as a
		// model goroutine, and the caller, driver or model goroutine,
		// waits for it on the clock.
		var done vclock.WaitGroup
		done.Add(1)
		vclock.Go(func() {
			defer done.Done()
			rep, err := r.scope.Pull(&paths.Ctx{Thread: r.scope.Name() + "/final"})
			if err == nil && len(rep.Data) > 0 {
				// The drain goes through the same chain as the puller, so
				// standing queries evaluate the final batch too.
				if err := r.ckpt.AppendRaw(rep.Data); err != nil {
					r.stopErr = err
				}
			}
		})
		done.Wait()
		// A final forced checkpoint right before the seal: recovery from
		// a cleanly stopped archive then replays (almost) no suffix. An
		// injected checkpoint crash surfaces here like any stop error;
		// the seal still proceeds so the archive itself stays replayable.
		// Checkpoint settles the checkpointer's job in flight on every
		// path, error or not, so nothing appends to the writer after the
		// Close below.
		if err := r.ckpt.Checkpoint(); err != nil && r.stopErr == nil {
			r.stopErr = err
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
	var wg vclock.WaitGroup
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
// no real time, with ties at one virtual instant broken by
// vclock.DefaultSeed: the same model runs the same interleaving on every
// run. It quiesces and disables the clock afterwards. All Systems used
// inside fn must be created and closed inside fn. When fn succeeds but
// the model does not quiesce — goroutines left parked with nothing to
// wake them, or still running after ten seconds — the error is the
// clock's *vclock.Stall report, naming each one.
func RunVirtual(fn func() error) (err error) {
	vclock.Enable(0, vclock.DefaultSeed)
	defer func() {
		stall := vclock.Quiesce(10 * time.Second)
		vclock.Disable()
		if err == nil {
			err = stall
		}
	}()
	return fn()
}
