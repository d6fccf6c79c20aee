package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// A workload is one configuration of the monitoring front end. Every
// workload runs the same four phases — collect, record, readback, sim —
// so every metric is measured on every workload; what differs is the
// mechanism exercised:
//
//   - record:      the lean recorder. Sink chain Checkpointer -> Writer, no
//     alerts, no self-metrics. The query engine and the metrics registry do
//     no work on the record path.
//   - record_full: the full front end. Three standing alerts interposed
//     (Checkpointer -> Engine -> Writer) and one self-metrics registry
//     wired into collectors, scope, writer, checkpointer and engine.
//
// An engine or self-metrics optimisation must move record_full and leave
// record flat; a checkpoint, archive, gather or simulator change moves both.
type workload struct {
	Name   string
	Full   bool
	Alerts []string
}

var standingAlerts = []string{
	"alert when p99(latency) > 400us by ecid window 5ms",
	"alert when coverage() < 1.0 for 3 rounds every 1ms",
	"alert when errors() > 0 window 1ms",
}

var workloads = []workload{
	{Name: "record"},
	{Name: "record_full", Full: true, Alerts: standingAlerts},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes fixes the work of one pass of each phase. They are constants of
// the benchmark, identical on every commit: --seconds decides how many
// passes a run makes, never how large a pass is.
type sizes struct {
	StepRounds  int // rounds the collectors write between two gathers
	PassSteps   int // steps in one record pass
	OpBatch     int // collector operations per timed batch
	PassBatches int // batches in one collect pass
	ArchiveStep int // steps in the readback archive; odd, so a suffix of about half a checkpoint cadence follows the newest frame

	// A readback pass makes one full scan, one aggregate, one row filter
	// and one recovery by full replay, and this many of the cheap ones:
	Selects    int // selective queries, one per stratum of the time span
	Recoveries int // recoveries through the newest checkpoint

	StackIterations int // allreduce rounds of a stack row
	SimDivisor      int // divides the table rows' iteration counts

	// Floors on the passes a phase makes however short --seconds is.
	MinCollectPasses, MinRecordPasses, MinReadbackPasses, MinSimPasses int
}

var benchmarkSizes = sizes{
	StepRounds: 64, PassSteps: 40, OpBatch: 10_000, PassBatches: 20, ArchiveStep: 129,
	Selects: 40, Recoveries: 10,
	StackIterations: 1000, SimDivisor: 1,
	MinCollectPasses: 5, MinRecordPasses: 5, MinReadbackPasses: 3, MinSimPasses: 2,
}

// Shares of --seconds the phases measure for.
const (
	shareCollect  = 0.04
	shareRecord   = 0.22
	shareReadback = 0.22
	shareSim      = 0.52
)

// config is one run's parameters.
type config struct {
	Workload   workload
	Seed       uint64
	Seconds    float64
	Trace      bool
	Sizes      sizes
	Scratch    string // directory for archives; the run works in a subdirectory and removes it
	CPUProfile string // directory for the traced run's pprof, empty for none
}

// phase is one of the four measured phases as the scheduler sees it.
type phase struct {
	name   string
	share  float64           // of --seconds
	floor  int               // passes it makes however short the run is
	pass   func(i int) error // makes the i-th pass
	finish func() error      // turns the passes' samples into metrics
	spent  time.Duration
	done   int
}

// schedule interleaves the phases' passes for total: the next pass always
// goes to the phase furthest behind its share of the time elapsed, so
// every metric's samples are spread over the whole run and a disturbance
// of a few seconds on a shared machine costs each metric a few samples,
// not one metric all of them. A phase stops once another of its passes
// would on average end more than half its length past the end (but never
// before its floor).
//
// Passes 2j and 2j+1 of a phase run j mod 8 frames deeper on the stack (see
// atDepth) — in pairs, because a traced run traces every other pass and
// compares the two kinds. Before every pass the calibration kernel is
// timed once (see calibrate.go); the samples are returned.
func schedule(phases []*phase, total time.Duration) (calibration sample, err error) {
	start := time.Now()
	for {
		elapsed := time.Since(start)
		var next *phase
		var lag time.Duration
		for _, p := range phases {
			if p.done > 0 && p.done >= p.floor && elapsed+p.spent/time.Duration(2*p.done) > total {
				continue
			}
			if l := time.Duration(p.share*float64(elapsed)) - p.spent; next == nil || l > lag {
				next, lag = p, l
			}
		}
		if next == nil {
			return calibration, nil
		}
		calibration = append(calibration, calibrate())
		i := next.done
		t0 := time.Now()
		err := atDepth(i/2%8, func() error { return next.pass(i) })
		next.spent += time.Since(t0)
		next.done++
		if err != nil {
			return nil, fmt.Errorf("%s phase: %w", next.name, err)
		}
	}
}

// atDepth calls fn from k frames further down the stack. Go aligns frames
// to 8 bytes, not to cache lines, and some of the program's hot loops
// spill 16 bytes to a stack slot and reload it every iteration (the query
// engine's prune loop is one). Replaying this benchmark's archive through
// the engine takes 135 ms when that slot sits inside a cache line, 180 ms
// when it straddles two, and 1090 ms when it straddles two pages. Which
// offset a build lands on is luck — any change to a frame size on the call
// path moves it — so the passes of a phase sweep all eight offsets within
// a line and the median over passes reports the typical one.
//
//go:noinline
func atDepth(k int, fn func() error) error {
	// pad makes the frame an odd number of 8-byte words, so that each
	// level moves the callee to another offset within a 64-byte line.
	var pad [8]byte
	pad[k&7] = 1
	var err error
	if k > 0 {
		err = atDepth(k-1, fn)
	} else {
		err = fn()
	}
	if pad[(k+1)&7] != 0 {
		panic("unreachable")
	}
	return err
}

// fixture is everything a run sets up before it measures.
type fixture struct {
	cfg    config
	dir    string // this run's scratch directory
	rec    *recorder
	topo   Topology
	alerts []*stmt
	stream *stream // ArchiveStep steps of rounds; a record pass writes its first PassSteps

	archive  string // readback archive with its checkpoint chain
	replayed string // a copy without the chain: recovery's last rung

	tuned map[string]time.Duration // compute-gsum's compute duration by topology
}

// perStep is the tuples one step writes.
func (f *fixture) perStep() int { return f.cfg.Sizes.StepRounds * len(f.topo.IDs) }

// passTuples is the data tuples of one record pass.
func (f *fixture) passTuples() int { return f.cfg.Sizes.PassSteps * f.perStep() }

// setUp builds the fixture: testbed, tree and scope, the seeded tuple
// stream, the readback archive (written through the workload's own chain
// and closed without a final checkpoint) with its chain-less copy, and
// the tuned compute durations of the compute-gsum rows.
func setUp(cfg config, dir string) (*fixture, error) {
	useRealClock()
	f := &fixture{cfg: cfg, dir: dir}
	var err error
	if f.rec, err = newRecorder(cfg.Workload.Full); err != nil {
		return nil, err
	}
	fail := func(err error) (*fixture, error) {
		f.rec.close()
		return nil, err
	}
	if f.topo, err = f.rec.topology(); err != nil {
		return fail(err)
	}
	if f.alerts, err = parseAlerts(cfg.Workload.Alerts); err != nil {
		return fail(err)
	}
	f.stream = generate(f.topo, cfg.Seed, cfg.Sizes.ArchiveStep*cfg.Sizes.StepRounds, opWrite)

	f.archive = filepath.Join(dir, "archive")
	f.replayed = filepath.Join(dir, "archive-nochain")
	if _, err := f.recordPass(f.archive, cfg.Sizes.ArchiveStep, false, nil); err != nil {
		return fail(err)
	}
	if err := copyDir(f.archive, f.replayed); err != nil {
		return fail(err)
	}
	if err := stripCheckpoints(f.replayed); err != nil {
		return fail(err)
	}

	f.tuned = make(map[string]time.Duration)
	for _, row := range simRows {
		if _, done := f.tuned[row.Topo]; done || !row.Compute {
			continue
		}
		if f.tuned[row.Topo], err = tuneSimRow(row, cfg.Sizes.SimDivisor); err != nil {
			return fail(err)
		}
	}
	useRealClock()
	return f, nil
}

// tearDown releases the fixture and deletes what it wrote.
func (f *fixture) tearDown() error {
	f.rec.close()
	return os.RemoveAll(f.dir)
}

func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// setUps is how many times a run builds its fixture; setup_s is the median.
const setUps = 3

// run executes one workload: set-up (repeated, timed), then the four
// phases, then the checks' verdict.
func run(cfg config) (*report, error) {
	rep := newReport(cfg)
	base := filepath.Join(cfg.Scratch, fmt.Sprintf("run-%s-%d", cfg.Workload.Name, os.Getpid()))
	if err := os.RemoveAll(base); err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	var fix *fixture
	var setUpS sample
	for i := 0; i < setUps; i++ {
		if fix != nil {
			if err := fix.tearDown(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if fix, err = setUp(cfg, filepath.Join(base, fmt.Sprintf("fixture-%d", i))); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setUpS = append(setUpS, time.Since(start).Seconds())
	}
	defer fix.tearDown()
	rep.setValue("setup_s", "s", setUpS.median())

	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
		stop, err := startCPUProfile(cfg)
		if err != nil {
			return nil, err
		}
		defer stop()
	}
	ref := fix.reference()
	var phases []*phase
	for _, begin := range []func(*fixture, *reference, *tracer, *report) (*phase, error){
		(*fixture).collectPhase, (*fixture).recordPhase, (*fixture).readbackPhase, (*fixture).simPhase,
	} {
		p, err := begin(fix, ref, tr, rep)
		if err != nil {
			return nil, fmt.Errorf("preparing a phase: %w", err)
		}
		phases = append(phases, p)
	}
	calibration, err := schedule(phases, time.Duration(cfg.Seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	rep.set("bench.calibration_ms", "ms", calibration)
	rep.Slowdown = calibration.median() / calNominalMS
	for _, p := range phases {
		if err := p.finish(); err != nil {
			return nil, fmt.Errorf("%s phase: %w", p.name, err)
		}
	}
	if cfg.Trace {
		if err := fix.probePhase(rep); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		path := filepath.Join(cfg.Scratch, "trace.json")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		rep.note("spans: %d written to %s", len(tr.spans), path)
	}
	rep.setValue("peak_rss_mb", "MB", peakRSSMB())
	return rep, nil
}
