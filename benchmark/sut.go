package main

// sut.go is the one file of the benchmark that imports the program. Every
// call into an eventspace package goes through the adapters below, which
// speak the benchmark's own plain types (Tuple, Topology, scanStats, ...),
// so an API change in the program is absorbed here and the harness,
// generator and statistics stay byte-identical across it.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"eventspace"
	"eventspace/internal/archive"
	"eventspace/internal/bench"
	"eventspace/internal/checkpoint"
	"eventspace/internal/cluster"
	"eventspace/internal/collect"
	"eventspace/internal/cosched"
	"eventspace/internal/escope"
	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/monitor"
	"eventspace/internal/pastset"
	"eventspace/internal/paths"
	"eventspace/internal/query"
	"eventspace/internal/reconfig"
	"eventspace/internal/vclock"
	"eventspace/internal/vnet"
)

// Values of the program's the generator and the checks need.
const (
	opWrite     = uint16(paths.OpWrite)
	opAlert     = uint16(paths.OpAlert)
	controlECID = collect.ControlECID
)

// useRealClock puts the process-global time source in the state the
// real-clock phases measure in: virtual clock off, modelled delays scaled
// to nothing, so a network hop costs only the host time of its code.
func useRealClock() { hrtime.SetScale(0) }

// useModelClock restores modelled delays for the phases that run under the
// virtual clock.
func useModelClock() { hrtime.SetScale(1) }

func fromSUT(t collect.TraceTuple) Tuple {
	return Tuple{ECID: t.ECID, Op: uint16(t.Op), Ret: t.Ret, Seq: t.Seq, Start: t.Start, End: t.End}
}

// ---------------------------------------------------------------------
// Record side: collectors, event scope, sink chain.

// recorder is the monitored side of the record phase: an instrumented
// 8-way tree on 16 Tins supplying the collector roster and metadata, and
// an archive event scope over its trace buffers on the in-process
// transport, built as core.attachArchive builds it.
type recorder struct {
	tb    *cluster.Testbed
	tree  *cluster.Tree
	scope *escope.Scope
	reg   *metrics.Registry // nil on the lean recorder
	bufs  []*pastset.Element
	meta  []archive.CollectorInfo
	ctx   *paths.Ctx
}

// newRecorder builds the tree and scope. full wires one self-metrics
// registry into collectors and scope (and later writer, checkpointer and
// engine), as System.UseMetrics does.
func newRecorder(full bool) (*recorder, error) {
	tb, err := cluster.NewTestbed(cluster.SingleTin(16))
	if err != nil {
		return nil, err
	}
	r := &recorder{tb: tb, ctx: &paths.Ctx{Thread: "bench/gather"}}
	if full {
		r.reg = metrics.New()
	}
	r.tree, err = cluster.BuildTree(tb, cluster.TreeSpec{
		Name: "T1", Fanout: 8, ThreadsPerHost: 1, Instrument: true, Metrics: r.reg,
	})
	if err != nil {
		return nil, err
	}
	spec := escope.Spec{Name: "archive/" + r.tree.Name, FrontEnd: tb.FrontEnd, Metrics: r.reg}
	for _, ec := range r.tree.Collectors.All() {
		r.bufs = append(r.bufs, ec.Buffer())
		spec.Sources = append(spec.Sources, escope.Source{Host: ec.Host(), Elem: ec.Buffer(), RecSize: collect.TupleSize})
	}
	r.scope, err = escope.Build(tb.Net, spec)
	if err != nil {
		r.tree.Close()
		return nil, err
	}
	r.meta = archive.MetaFromRegistry(r.tree.Collectors)
	return r, nil
}

func (r *recorder) close() {
	r.scope.Close()
	r.tree.Close()
}

// topology describes the tree to the generator in collector indices.
func (r *recorder) topology() (Topology, error) {
	topo := Topology{Nodes: len(r.tree.Nodes)}
	index := make(map[uint32]int)
	for i, ec := range r.tree.Collectors.All() {
		topo.IDs = append(topo.IDs, ec.ID())
		index[ec.ID()] = i
	}
	var build func(n *cluster.Node) (*TopoNode, error)
	build = func(n *cluster.Node) (*TopoNode, error) {
		out := &TopoNode{Collective: index[n.CollectiveEC.ID()]}
		threads := len(n.ContribECs) - len(n.Children)
		for p := 0; p < threads; p++ {
			out.Threads = append(out.Threads, index[n.ContribECs[p].ID()])
		}
		for ci, childName := range n.Children {
			host := strings.TrimPrefix(childName, r.tree.Name+"/")
			var link *cluster.Link
			for _, l := range r.tree.Links {
				if l.From.Name() == host && l.To == n.Host {
					link = l
				}
			}
			if link == nil {
				return nil, fmt.Errorf("sut: no link from %s to %s", host, n.Host.Name())
			}
			child := TopoChild{
				Contributor: index[n.ContribECs[threads+ci].ID()],
				Client:      index[link.ClientEC.ID()],
				Server:      index[link.ServerEC.ID()],
			}
			if cn, ok := r.tree.NodeByName(childName); ok {
				sub, err := build(cn)
				if err != nil {
					return nil, err
				}
				child.Node = sub
			}
			out.Children = append(out.Children, child)
		}
		return out, nil
	}
	root, err := build(r.tree.Nodes[0])
	topo.Root = root
	return topo, err
}

// write copies tuples [from, to) of the stream into their collectors' own
// trace buffers, as EventCollector.Op would.
func (r *recorder) write(st *stream, from, to int) error {
	for i := from; i < to; i++ {
		if _, err := r.bufs[st.src[i]].WriteCopy(st.data[i*tupleSize : (i+1)*tupleSize]); err != nil {
			return err
		}
	}
	return nil
}

// pull performs one gather over the scope and returns the reply payload.
func (r *recorder) pull() ([]byte, error) {
	rep, err := r.scope.Pull(r.ctx)
	return rep.Data, err
}

// counters reports gathers performed and network messages sent so far.
func (r *recorder) counters() (pulls, msgs uint64) {
	return r.scope.Pulls(), r.tb.Net.Messages()
}

// rawSink is the seam every sink-chain element implements
// (escope.RawSink, checkpoint.Sink, query.Sink).
type rawSink interface {
	AppendRaw(data []byte) error
}

// chain is one archive directory's sink chain.
type chain struct {
	head rawSink
	w    *archive.Writer
	ck   *checkpoint.Checkpointer
	eng  *query.Engine
}

// chainStats is what a sealed chain reports about itself.
type chainStats struct {
	Frames     uint64 // checkpoint frames written
	FrameBytes uint64 // their total size
	Alerts     int    // alerts the engine fired
	Segments   int    // segment files on disk
}

// openChain creates dir's writer and wires the sink chain in front of it
// exactly as core.attachArchive (internal/core/core.go) does: with alert
// statements a query engine is interposed before the writer, and the
// checkpointer always sits at the head. wrap, when set, interposes a
// timing shim in front of each element so the traced run can tell the
// layers' self times apart; the untraced run passes nil and gets the
// product's chain unchanged.
func (r *recorder) openChain(dir string, alerts []*stmt, wrap func(layer string, s rawSink) rawSink) (*chain, error) {
	if wrap == nil {
		wrap = func(_ string, s rawSink) rawSink { return s }
	}
	w, err := archive.Create(archive.Options{Dir: dir, Metrics: r.reg})
	if err != nil {
		return nil, err
	}
	if err := archive.WriteMeta(dir, r.meta); err != nil {
		w.Close()
		return nil, err
	}
	c := &chain{w: w}
	sink := wrap("archive.append", w)
	if len(alerts) > 0 {
		if c.eng, err = newEngine(sink, alerts, len(r.meta)); err != nil {
			w.Close()
			return nil, err
		}
		c.eng.UseMetrics(r.reg, r.tree.Name)
		sink = wrap("query.append", c.eng)
	}
	c.ck, err = checkpoint.New(w, sink, c.eng, r.meta, checkpoint.Config{Metrics: r.reg})
	if err != nil {
		w.Close()
		return nil, err
	}
	c.head = wrap("checkpoint.append", c.ck)
	return c, nil
}

func (c *chain) append(data []byte) error { return c.head.AppendRaw(data) }
func (c *chain) checkpoint() error        { return c.ck.Checkpoint() }
func (c *chain) seal() error              { return c.w.Close() }

func (c *chain) stats() chainStats {
	ck := c.ck.Stats()
	st := chainStats{Frames: ck.Written, FrameBytes: ck.Bytes, Segments: c.w.Stats().Segments}
	if c.eng != nil {
		st.Alerts = len(c.eng.Alerts())
	}
	return st
}

// offlineEngine is a query engine with no sink behind it, fed batches
// directly: how the lean workload, whose chain has no engine, still
// measures what the engine would cost on its stream.
type offlineEngine struct{ eng *query.Engine }

func newOfflineEngine(alerts []*stmt, expected int) (*offlineEngine, error) {
	eng, err := newEngine(nil, alerts, expected)
	return &offlineEngine{eng}, err
}

// newEngine builds a query engine over sink (nil for none) with the alert
// statements registered and the coverage() roster sized.
func newEngine(sink query.Sink, alerts []*stmt, expected int) (*query.Engine, error) {
	eng := query.NewEngine(sink)
	eng.SetExpected(expected)
	for _, a := range alerts {
		if err := eng.Register(a.s); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

func (e *offlineEngine) AppendRaw(data []byte) error { return e.eng.AppendRaw(data) }
func (e *offlineEngine) alerts() int                 { return len(e.eng.Alerts()) }

// archiveBytes sums the segment and checkpoint-chain files of dir.
func archiveBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if ext := filepath.Ext(e.Name()); ext != ".eseg" && ext != ".eckpt" {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// stripCheckpoints deletes dir's checkpoint chain, leaving recovery only
// its last rung: full replay.
func stripCheckpoints(dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, checkpoint.FilePattern))
	if err != nil {
		return err
	}
	for _, f := range files {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	return nil
}

// opSite is the paper's section 6.1 measurement: an event collector
// around a wrapper that does nothing, so an Op costs two stamps, the
// encode and the trace-buffer write — plus the self-metrics record when
// the recorder carries a registry.
type opSite struct {
	ec  *collect.EventCollector
	ctx *paths.Ctx
	req paths.Request
}

func newOpSite(r *recorder) (*opSite, error) {
	host := r.tb.Hosts()[0]
	noop := paths.NewFunc("bench/noop", host, func(*paths.Ctx, paths.Request) (paths.Reply, error) {
		return paths.Reply{}, nil
	})
	// A registry of its own: the collector must not join the tree's
	// roster, which the archive metadata is taken from.
	reg := collect.NewRegistry()
	reg.UseMetrics(r.reg)
	ec, err := reg.New("bench/op", host, collect.Meta{Role: collect.RoleGeneric, Contributor: -1}, noop, cluster.DefaultTraceBufCap)
	if err != nil {
		return nil, err
	}
	return &opSite{ec: ec, ctx: &paths.Ctx{Thread: "bench/op"}, req: paths.Request{Kind: paths.OpWrite, Value: 1}}, nil
}

// run performs n collector operations.
func (s *opSite) run(n int) error {
	for i := 0; i < n; i++ {
		if _, err := s.ec.Op(s.ctx, s.req); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Read side: scans, queries, recovery.

// scanStats is the part of the archive's scan accounting the benchmark
// reports.
type scanStats struct {
	Segments, SegmentsSkipped    int
	BlocksScanned, BlocksSkipped uint64
}

func fromScan(s archive.ScanStats) scanStats {
	return scanStats{
		Segments: s.Segments, SegmentsSkipped: s.SegmentsSkipped,
		BlocksScanned: s.BlocksScanned, BlocksSkipped: s.BlocksSkipped,
	}
}

// archiveReader is an opened archive directory with its collector
// metadata.
type archiveReader struct {
	r    *archive.Reader
	meta []archive.CollectorInfo
}

func openArchive(dir string) (*archiveReader, error) {
	r, err := archive.OpenReader(dir)
	if err != nil {
		return nil, err
	}
	meta, err := archive.ReadMeta(dir)
	if err != nil {
		return nil, err
	}
	return &archiveReader{r: r, meta: meta}, nil
}

// scan streams every archived tuple, all columns decoded.
func (a *archiveReader) scan(fn func(Tuple) bool) (scanStats, error) {
	st, err := a.r.Scan(archive.Query{}, func(t collect.TraceTuple) bool { return fn(fromSUT(t)) })
	return fromScan(st), err
}

// stmt is a parsed esql statement.
type stmt struct{ s *query.Stmt }

func parseQuery(src string) (*stmt, error) {
	s, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	return &stmt{s}, nil
}

func parseAlerts(srcs []string) ([]*stmt, error) {
	var out []*stmt
	for _, src := range srcs {
		s, err := parseQuery(src)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func unwrap(stmts []*stmt) []*query.Stmt {
	var out []*query.Stmt
	for _, s := range stmts {
		out = append(out, s.s)
	}
	return out
}

// selectRows streams the tuples a select * statement matches. pushdown
// compiles the predicate into the archive's segment and block skipping;
// without it every block is decoded and the predicate evaluated per row.
func (a *archiveReader) selectRows(q *stmt, pushdown bool, fn func(Tuple) bool) (scanStats, error) {
	var aq archive.Query
	if pushdown {
		aq = q.s.Pushdown()
	}
	st, err := query.ScanQuery(a.r, q.s, aq, func(t collect.TraceTuple) bool { return fn(fromSUT(t)) })
	return fromScan(st), err
}

// aggRow is one cell of a grouped, windowed aggregate: group, window
// bucket, and the integer value of each select column.
type aggRow struct {
	Group  uint32
	Bucket int64
	Vals   []int64
}

// aggregate evaluates an aggregate select whose columns are all integer
// or duration valued.
func (a *archiveReader) aggregate(q *stmt) ([]aggRow, error) {
	res, _, err := query.Run(a.r, q.s)
	if err != nil {
		return nil, err
	}
	rows := make([]aggRow, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = aggRow{Group: r.Group, Bucket: r.Bucket}
		for _, v := range r.Vals {
			rows[i].Vals = append(rows[i].Vals, v.I)
		}
	}
	return rows, nil
}

// replayAlerts regenerates the alert stream from the archive's data
// tuples and returns its length.
func (a *archiveReader) replayAlerts(alerts []*stmt) (int, error) {
	got, err := query.Replay(a.r, unwrap(alerts), len(a.meta))
	return len(got), err
}

// replayLastArrival re-runs the load-balance reduction over the archive
// and returns the rounds it judged.
func (a *archiveReader) replayLastArrival() (uint64, error) {
	rep, _, err := archive.ReplayLastArrival(a.r, a.meta, archive.Query{})
	if err != nil {
		return 0, err
	}
	return rep.Weighted().Total(), nil
}

// replayStats re-runs the statistics monitor's joins over the archive and
// returns the rounds it analysed.
func (a *archiveReader) replayStats() (uint64, error) {
	rep, _, err := archive.ReplayStats(a.r, a.meta, archive.Query{}, 0)
	if err != nil {
		return 0, err
	}
	return rep.RoundsAnalyzed(), nil
}

// frame is a decoded checkpoint frame.
type frame struct{ cp checkpoint.Checkpoint }

// loadNewestFrame walks dir's checkpoint chain for the newest valid frame.
func loadNewestFrame(dir string) (*frame, bool) {
	cp, _, ok := checkpoint.LoadNewest(dir)
	return &frame{cp}, ok
}

func (f *frame) encode() []byte { return checkpoint.Encode(f.cp) }

func decodeFrame(buf []byte) error {
	_, err := checkpoint.Decode(buf)
	return err
}

// scanSuffix streams the tuples archived after the frame's cursor.
func (a *archiveReader) scanSuffix(f *frame, fn func(Tuple) bool) (scanStats, error) {
	st, err := a.r.ScanFrom(f.cp.Cursor, archive.Query{}, func(t collect.TraceTuple) bool { return fn(fromSUT(t)) })
	return fromScan(st), err
}

// recovery is what a front-end recovery hands back, in plain values.
type recovery struct {
	Checkpointed  bool
	Fallbacks     int
	Rounds        uint64 // last-arrival verdicts rebuilt
	TuplesSkipped uint64 // archived tuples the checkpoint spared the replay
	BytesReplayed uint64
	Weighted      string // canonical rendering of the recovered weighted tree
	HasEngine     bool
}

// recoverFrontEnd runs the checkpoint recovery ladder over dir.
func recoverFrontEnd(dir string, alerts []*stmt) (recovery, error) {
	st, err := reconfig.RecoverFrontEnd(dir, nil, unwrap(alerts))
	if err != nil {
		return recovery{}, err
	}
	return recovery{
		Checkpointed: st.Checkpointed, Fallbacks: st.Fallbacks,
		Rounds: st.RoundsRecovered, TuplesSkipped: st.TuplesSkipped, BytesReplayed: st.BytesReplayed,
		Weighted: renderWeighted(st.Resume.Weighted), HasEngine: st.Engine != nil,
	}, nil
}

func renderWeighted(w *monitor.WeightedTree) string {
	nodes := w.Nodes()
	sort.Strings(nodes)
	var b strings.Builder
	for _, n := range nodes {
		counts := w.Counts(n)
		keys := make([]int, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		fmt.Fprintf(&b, "%s:", n)
		for _, k := range keys {
			fmt.Fprintf(&b, " %d=%d", k, counts[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Simulator: the paper's table rows and the full product stack.

// simRow is one row of the paper's Tables 1-3 in plain values. The
// numbers the rows turn into below are copied from the quick preset of
// internal/bench as of the commit that added the benchmark, on purpose:
// later edits to bench.QuickOptions must not change the benchmark's work.
type simRow struct {
	Name     string
	Topo     string // tin16, tin20, lan, wan, wan-overloaded
	Monitor  string // lb-single, lb-distributed, statsm, statsm-nogather
	Parallel bool   // parallel gathering (4 helper threads)
	Compute  bool   // compute-gsum (else gsum)
	Cosched  string // statsm rows: none, after-send, after-unblock
}

// simResult is one simulated run's modelled measurements.
type simResult struct {
	Modelled   time.Duration // modelled duration of the iteration loop
	PerOp      time.Duration // modelled time per allreduce
	Messages   uint64        // network messages during the loop
	GatherRate float64       // NaN when the run gathers nothing
}

const (
	simLANIterations = 400
	simWANIterations = 100
	simWANSeed       = 2005
)

// spec builds the row's bench.RunSpec. scale divides the iteration count,
// for the smoke test only.
func (row simRow) spec(monitored bool, compute time.Duration, scale int) (bench.RunSpec, error) {
	var tb cluster.TestbedSpec
	iters := simLANIterations
	switch row.Topo {
	case "tin16":
		tb = cluster.SingleTin(16)
	case "tin20":
		tb = cluster.SingleTin(20)
	case "lan":
		tb = cluster.LANMulti(20, 20)
	case "wan":
		tb, iters = cluster.WANMulti(2, 2, simWANSeed, 0), simWANIterations
	case "wan-overloaded":
		tb, iters = cluster.WANMulti(2, 2, simWANSeed, 8), simWANIterations
	default:
		return bench.RunSpec{}, fmt.Errorf("sut: unknown topology %q", row.Topo)
	}
	traceCap := iters / 5
	if traceCap < 32 {
		traceCap = 32
	}
	cfg := monitor.DefaultConfig()
	cfg.IntermediateCap = traceCap
	cfg.PullInterval = 400 * time.Microsecond
	cfg.GatewayHelpers, cfg.RootHelpers = 0, 0
	if row.Parallel {
		cfg.GatewayHelpers, cfg.RootHelpers = 4, 4
	}
	spec := bench.RunSpec{
		Testbed: tb, Fanout: 8, Trees: 2, Workload: bench.Gsum,
		Iterations: max(iters/scale, 8), MonitorCfg: cfg, TimeScale: 1, TraceBufCap: traceCap,
	}
	switch row.Monitor {
	case "lb-single", "lb-distributed":
		spec.Monitor = bench.LBSingleScope
		if row.Monitor == "lb-distributed" {
			spec.Monitor = bench.LBDistributed
		}
		spec.MonitorCfg.AnalysisCostPerTuple = time.Microsecond
		spec.MonitorCfg.AnalysisInterval = 500 * time.Microsecond
	case "statsm", "statsm-nogather":
		spec.Monitor = bench.Statsm
		if row.Monitor == "statsm-nogather" {
			spec.Monitor = bench.StatsmNoGather
		}
		spec.MonitorCfg.ReadBatch = 5
		switch row.Cosched {
		case "none":
			spec.MonitorCfg.Strategy = cosched.None
		case "after-send":
			spec.MonitorCfg.Strategy = cosched.AfterSend
		case "after-unblock":
			spec.MonitorCfg.Strategy = cosched.AfterUnblock
		default:
			return bench.RunSpec{}, fmt.Errorf("sut: unknown coscheduling %q", row.Cosched)
		}
	default:
		return bench.RunSpec{}, fmt.Errorf("sut: unknown monitor %q", row.Monitor)
	}
	if row.Compute {
		// compute-gsum alternates computation with a single tree.
		spec.Workload, spec.Trees, spec.ComputeDuration = bench.ComputeGsum, 1, compute
	}
	if !monitored {
		spec.Monitor = bench.NoMonitor
	}
	return spec, nil
}

// runSimRow executes the row once under the virtual clock.
func runSimRow(row simRow, monitored bool, compute time.Duration, scale int) (simResult, error) {
	spec, err := row.spec(monitored, compute, scale)
	if err != nil {
		return simResult{}, err
	}
	res, err := bench.Run(spec)
	if err != nil {
		return simResult{}, err
	}
	out := simResult{Modelled: res.Duration, PerOp: res.PerOp, Messages: res.Messages, GatherRate: math.NaN()}
	if monitored {
		switch row.Monitor {
		case "lb-single", "lb-distributed":
			out.GatherRate = res.GatherRate
		case "statsm":
			out.GatherRate = res.WrapperGatherRate
		}
	}
	return out, nil
}

// tuneSimRow finds the per-iteration compute duration that gives a
// compute-gsum row its 50/50 split.
func tuneSimRow(row simRow, scale int) (time.Duration, error) {
	spec, err := row.spec(false, 0, scale)
	if err != nil {
		return 0, err
	}
	return bench.TuneCompute(spec, 60)
}

// runStackRow runs gsum (compute == 0) or compute-gsum on 16 Tins through
// the façade. monitored attaches the whole product stack to one
// instrumented tree — distributed load-balance monitor, statistics
// monitor, and a checkpointed archive recorder pulling every 500 µs with
// the given alerts (and a self-metrics registry when full) — and base
// runs the same tree uninstrumented. The gather rate of a stack run is
// the share of tuples the collectors wrote that reached the archive.
func runStackRow(compute time.Duration, iterations int, monitored, full bool, alerts []string, dir string) (simResult, error) {
	out := simResult{GatherRate: math.NaN()}
	err := eventspace.RunVirtual(func() error {
		sys, err := eventspace.New(eventspace.SingleTin(16), eventspace.CoschedAfterUnblock)
		if err != nil {
			return err
		}
		defer sys.Close()
		if monitored && full {
			sys.UseMetrics(eventspace.NewMetricsRegistry())
		}
		traceCap := max(iterations/5, 32)
		tree, err := sys.BuildTree(eventspace.TreeSpec{
			Name: "T1", Fanout: 8, ThreadsPerHost: 1, Instrument: monitored, TraceBufCap: traceCap,
		})
		if err != nil {
			return err
		}
		var rec *eventspace.ArchiveRecorder
		if monitored {
			cfg := eventspace.DefaultMonitorConfig()
			cfg.PullInterval = 400 * time.Microsecond
			cfg.AnalysisInterval = 500 * time.Microsecond
			cfg.IntermediateCap = traceCap
			if _, err := sys.AttachLoadBalance(tree, eventspace.Distributed, cfg); err != nil {
				return err
			}
			if _, err := sys.AttachStatsm(tree, cfg); err != nil {
				return err
			}
			rec, err = sys.AttachArchiveCheckpointed(tree, 500*time.Microsecond,
				eventspace.ArchiveOptions{Dir: dir}, eventspace.CheckpointConfig{}, alerts...)
			if err != nil {
				return err
			}
		}
		before := sys.Testbed().Net.Messages()
		out.Modelled, err = sys.RunWorkload(eventspace.Workload{
			Trees: []*eventspace.Tree{tree}, Iterations: iterations, Compute: compute,
		})
		if err != nil {
			return err
		}
		out.Messages = sys.Testbed().Net.Messages() - before
		out.PerOp = out.Modelled / time.Duration(iterations)
		if rec == nil {
			return nil
		}
		rec.Stop()
		if err := rec.Err(); err != nil {
			return err
		}
		var written uint64
		for _, ec := range tree.Collectors.All() {
			written += ec.Buffer().Stats().Written
		}
		r, err := archive.OpenReader(dir)
		if err != nil {
			return err
		}
		var archived uint64
		if _, err := r.Scan(archive.Query{}, func(t collect.TraceTuple) bool {
			if t.ECID != collect.ControlECID {
				archived++
			}
			return true
		}); err != nil {
			return err
		}
		if written == 0 {
			return errors.New("sut: stack run wrote no tuples")
		}
		out.GatherRate = float64(archived) / float64(written)
		return nil
	})
	return out, err
}

// ---------------------------------------------------------------------
// Isolated probes of single layers (traced run only).

// probe times one public function of one layer in isolation. run performs
// Per operations; prep, when set, runs untimed before every run.
type probe struct {
	Metric string
	Unit   string // ns or us, per operation
	Per    int
	Reps   int
	prep   func() error
	run    func() error
	close  func()
}

// remoteReadProbe is Remote.Op(OpRead) of a 64-tuple BatchReader batch
// across one connection: in-process, or loopback TCP.
func remoteReadProbe(metric string, tcp bool) (probe, error) {
	net := vnet.NewNetwork(vnet.FastEthernet, vnet.DefaultCostModel())
	srvHost, err := net.AddStandaloneHost("probe-srv", 2)
	if err != nil {
		return probe{}, err
	}
	cliHost, err := net.AddStandaloneHost("probe-cli", 2)
	if err != nil {
		return probe{}, err
	}
	elem, err := pastset.NewElementFixed("probe/trace", cluster.DefaultTraceBufCap, collect.TupleSize)
	if err != nil {
		return probe{}, err
	}
	svc := paths.NewService()
	target := svc.Register(paths.NewBatchReader("probe/reader", srvHost, elem, collect.TupleSize, 0))
	var caller vnet.Caller
	closeAll := func() {}
	if tcp {
		srv, err := vnet.ListenTCP("127.0.0.1:0", svc.Handler())
		if err != nil {
			return probe{}, err
		}
		c, err := vnet.DialTCP(srv.Addr())
		if err != nil {
			srv.Close()
			return probe{}, err
		}
		caller = c
		closeAll = func() { c.Close(); srv.Close() }
	} else {
		c := net.Dial(cliHost, srvHost, svc.Handler())
		caller = c
		closeAll = func() { c.Close() }
	}
	stub := paths.NewRemote("probe/stub", cliHost, caller, target)
	ctx := &paths.Ctx{Thread: "probe"}
	var rec [collect.TupleSize]byte
	return probe{
		Metric: metric, Unit: "us", Per: 1, Reps: 400,
		prep: func() error {
			for i := 0; i < 64; i++ {
				if _, err := elem.WriteCopy(rec[:]); err != nil {
					return err
				}
			}
			return nil
		},
		run: func() error {
			rep, err := stub.Op(ctx, paths.Request{Kind: paths.OpRead})
			if err == nil && len(rep.Data) != 64*collect.TupleSize {
				err = fmt.Errorf("sut: remote read returned %d bytes", len(rep.Data))
			}
			return err
		},
		close: closeAll,
	}, nil
}

// underClock runs fn as the one registered goroutine of a fresh virtual
// clock and waits for it.
func underClock(fn func() error) error {
	var err error
	outer := eventspace.RunVirtual(func() error {
		done := make(chan struct{})
		vclock.Go(func() {
			defer close(done)
			err = fn()
		})
		<-done
		return nil
	})
	if err == nil {
		err = outer
	}
	return err
}

// probeSink keeps the stamp loop's result live.
var probeSink hrtime.Stamp

// probes builds every isolated probe. The caller closes them.
func probes() ([]probe, error) {
	const loop = 100_000
	elem, err := pastset.NewElementFixed("probe/write", cluster.DefaultTraceBufCap, collect.TupleSize)
	if err != nil {
		return nil, err
	}
	drain, err := pastset.NewElementFixed("probe/drain", cluster.DefaultTraceBufCap, collect.TupleSize)
	if err != nil {
		return nil, err
	}
	cursor := drain.NewCursor()
	const drainBatch = 3000
	var drained []byte
	rec := make([]byte, collect.TupleSize)
	tuple := collect.TraceTuple{ECID: 7, Op: paths.OpWrite, Seq: 1, Start: 1000, End: 2000}
	const decodeBatch = 4096
	encoded := make([]byte, decodeBatch*collect.TupleSize)
	for i := 0; i < decodeBatch; i++ {
		tuple.EncodeTo(encoded[i*collect.TupleSize:])
	}
	var decoded []collect.TraceTuple
	op := metrics.New().Op(metrics.KindCollector, "probe")

	out := []probe{
		{Metric: "hrtime.now_ns", Unit: "ns", Per: loop, Reps: 30, run: func() error {
			for i := 0; i < loop; i++ {
				probeSink += hrtime.Now() & 1
			}
			return nil
		}},
		{Metric: "pastset.write_ns", Unit: "ns", Per: loop, Reps: 30, run: func() error {
			for i := 0; i < loop; i++ {
				if _, err := elem.WriteCopy(rec); err != nil {
					return err
				}
			}
			return nil
		}},
		{Metric: "pastset.drain_ns_per_tuple", Unit: "ns", Per: drainBatch, Reps: 200,
			prep: func() error {
				for i := 0; i < drainBatch; i++ {
					if _, err := drain.WriteCopy(rec); err != nil {
						return err
					}
				}
				return nil
			},
			run: func() error {
				var n int
				var err error
				drained, n, err = cursor.DrainBytesInto(drained[:0], 0, collect.TupleSize)
				if err == nil && n != drainBatch {
					err = fmt.Errorf("sut: drained %d of %d tuples", n, drainBatch)
				}
				return err
			}},
		{Metric: "collect.encode_ns", Unit: "ns", Per: loop, Reps: 30, run: func() error {
			for i := 0; i < loop; i++ {
				tuple.Seq = uint32(i)
				tuple.EncodeTo(rec)
			}
			return nil
		}},
		{Metric: "collect.decode_ns_per_tuple", Unit: "ns", Per: decodeBatch, Reps: 200, run: func() error {
			var err error
			decoded, err = collect.DecodeAppend(decoded[:0], encoded)
			return err
		}},
		{Metric: "metrics.op_record_ns", Unit: "ns", Per: loop, Reps: 30, run: func() error {
			for i := 0; i < loop; i++ {
				op.Record(int64(i&1023), collect.TupleSize, nil)
			}
			return nil
		}},
	}
	for _, rp := range []struct {
		metric string
		tcp    bool
	}{{"paths.remote_read_us", false}, {"paths.remote_read_tcp_us", true}} {
		p, err := remoteReadProbe(rp.metric, rp.tcp)
		if err != nil {
			closeProbes(out)
			return nil, err
		}
		out = append(out, p)
	}

	// The two probes below run under the virtual clock at full model
	// scale, and put the real-clock setting back when done.
	const sleeps = 20_000
	out = append(out, probe{Metric: "vclock.sleep_ns", Unit: "ns", Per: sleeps, Reps: 15, run: func() error {
		useModelClock()
		defer useRealClock()
		return underClock(func() error {
			for i := 0; i < sleeps; i++ {
				vclock.Sleep(time.Microsecond)
			}
			return nil
		})
	}})
	const calls = 5_000
	out = append(out, probe{Metric: "vnet.call_ns", Unit: "ns", Per: calls, Reps: 15, run: func() error {
		useModelClock()
		defer useRealClock()
		return underClock(func() error {
			net := vnet.NewNetwork(vnet.FastEthernet, vnet.DefaultCostModel())
			a, err := net.AddStandaloneHost("a", 2)
			if err != nil {
				return err
			}
			b, err := net.AddStandaloneHost("b", 2)
			if err != nil {
				return err
			}
			conn := net.Dial(a, b, func(p []byte) ([]byte, error) { return p, nil })
			defer conn.Close()
			for i := 0; i < calls; i++ {
				if _, err := conn.Call(rec); err != nil {
					return err
				}
			}
			return nil
		})
	}})
	return out, nil
}

func closeProbes(ps []probe) {
	for _, p := range ps {
		if p.close != nil {
			p.close()
		}
	}
}
