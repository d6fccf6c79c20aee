package monitor

import (
	"fmt"
	"sync"
	"time"

	"eventspace/internal/analysis"
	"eventspace/internal/cluster"
	"eventspace/internal/collect"
	"eventspace/internal/cosched"
	"eventspace/internal/escope"
	"eventspace/internal/metrics"
	"eventspace/internal/pastset"
	"eventspace/internal/paths"
	"eventspace/internal/vnet"
)

// Statsm is the statistics monitor (section 4.3, figure 4): per-host
// analysis threads compute the full per-wrapper statistics — mean,
// minimum, maximum, standard deviation and NWS sliding-window median of
// the up, down and total latencies, the arrival/departure wait times, and
// the two-way TCP/IP latencies — and store them in result buffers that two
// gather threads move to the front-end.
type Statsm struct {
	cfg Config

	hosts []*statsHost

	wrapperScope *escope.Scope
	threadScope  *escope.Scope
	wrapperPull  *escope.Puller
	threadPull   *escope.Puller

	atree *AnalysisTree

	threads  *hostThreads
	stopOnce sync.Once
}

// statsHost is one host's analysis state. Its analysis thread holds mu
// while it changes the state, because the monitor's readers
// (TraceReadRate, RoundsAnalyzed, TCPSamples) run on other goroutines.
type statsHost struct {
	host *vnet.Host
	mu   sync.Mutex

	nodes []*statsNode
	links []*statsLink
	// nextLink round-robins the links' remote trace reads: one remote
	// read per analysis batch, so a batch fits inside a coscheduling
	// window instead of spanning several collective rounds.
	nextLink int
	// batches counts analysis passes; per-thread records are published
	// every few batches (they are "not always needed").
	batches uint64

	wrapperElem *pastset.Element
	threadElem  *pastset.Element

	conns []*vnet.Conn
}

// statsNode carries one collective wrapper's statistics: the wrapper
// operator, fed from the wrapper's trace buffers, plus the per-thread
// wait streams only the live monitor publishes.
type statsNode struct {
	wrapperStats
	node    *cluster.Node
	cursors []*pastset.Cursor // contributor EC buffers
	collCur *pastset.Cursor   // collective EC buffer

	perThreadArr []*analysis.Stream
	perThreadDep []*analysis.Stream
	dirty        bool
}

// statsLink carries one connection's TCP latency statistics, computed on
// the connection's destination host (section 6.3.1: moving the
// computation there from the source lowered statsm's overhead). The
// local, server side's tuples are read from the local trace buffer; the
// client side's are pulled from the source host over the link's own
// monitor connection — the remote reads that dominate statsm's
// uncoscheduled overhead in the paper.
type statsLink struct {
	link          *cluster.Link
	localCur      *pastset.Cursor
	remote        paths.Wrapper // batch reader on the peer, behind a stub
	pendingLocal  map[uint32]collect.TraceTuple
	pendingRemote map[uint32]collect.TraceTuple
	stream        *analysis.Stream
	samples       uint64
	dirty         bool
}

// statsMaxPending is the live wrapper joins' eviction bound.
const statsMaxPending = 256

// NewStatsm builds the statistics monitor over an instrumented tree.
// seed, when non-nil, is the analysis tree it publishes from the start
// instead of an empty one: an archive-replayed snapshot (Replay.Tree)
// after a front-end loss. The seeded records stand until the monitor's
// own analysis threads publish fresher ones for the same node/kind, so a
// reader never observes the statistics reset to zero across the
// recovery.
func NewStatsm(tb *cluster.Testbed, tree *cluster.Tree, cfg Config, cs *cosched.Set, seed *AnalysisTree) (*Statsm, error) {
	if !tree.Spec.Instrument {
		return nil, fmt.Errorf("monitor: statsm needs an instrumented tree")
	}
	if seed == nil {
		seed = NewAnalysisTree()
	}
	sm := &Statsm{
		cfg:     cfg,
		atree:   seed,
		threads: newHostThreads(cs),
	}
	const win = analysis.DefaultMedianWindow
	byHost := make(map[*vnet.Host]*statsHost)
	hostFor := func(h *vnet.Host) (*statsHost, error) {
		sh, ok := byHost[h]
		if ok {
			return sh, nil
		}
		we, err := h.Registry.CreateFixed(fmt.Sprintf("statsm/w/%s/%s", tree.Name, h.Name()), cfg.intermediateCap(), analysis.StatsRecordSize)
		if err != nil {
			return nil, err
		}
		te, err := h.Registry.CreateFixed(fmt.Sprintf("statsm/t/%s/%s", tree.Name, h.Name()), cfg.intermediateCap(), analysis.StatsRecordSize)
		if err != nil {
			return nil, err
		}
		sh = &statsHost{host: h, wrapperElem: we, threadElem: te}
		byHost[h] = sh
		sm.hosts = append(sm.hosts, sh)
		return sh, nil
	}

	for _, n := range tree.Nodes {
		sh, err := hostFor(n.Host)
		if err != nil {
			return nil, err
		}
		k := n.AR.Fanin()
		st := &statsNode{node: n, collCur: n.CollectiveEC.Buffer().NewCursor()}
		for i := 0; i < k; i++ {
			st.cursors = append(st.cursors, n.ContribECs[i].Buffer().NewCursor())
			st.perThreadArr = append(st.perThreadArr, analysis.NewStream(win))
			st.perThreadDep = append(st.perThreadDep, analysis.NewStream(win))
		}
		err = st.build(k, statsMaxPending, win, func(m analysis.RoundMetrics) {
			st.fold(m)
			st.dirty = true
			for _, c := range m.Per {
				st.perThreadArr[c.Contributor].Add(micros(c.ArrivalWait))
				st.perThreadDep[c.Contributor].Add(micros(c.DepartureWait))
			}
		})
		if err != nil {
			return nil, err
		}
		sh.nodes = append(sh.nodes, st)
	}

	for _, lk := range tree.Links {
		sh, err := hostFor(lk.To)
		if err != nil {
			return nil, err
		}
		// The analysis thread reads the source's trace buffer over its
		// own connection. Remote-read failures are already tolerated
		// (the batch proceeds without the peer's tuples); the retry
		// policy additionally rides out transient faults.
		rd := paths.NewBatchReader("statsm/peer("+lk.Name+")", lk.From, lk.ClientEC.Buffer(), collect.TupleSize, 0)
		svc := paths.NewService()
		target := svc.Register(rd)
		conn := tb.Net.Dial(lk.To, lk.From, svc.Handler())
		sh.conns = append(sh.conns, conn)
		stub := paths.NewRemote("statsm/stub("+lk.Name+")", lk.To, conn, target)
		if cfg.Retry != nil {
			pol := *cfg.Retry
			stub.SetRetry(&pol)
		}
		if cfg.Metrics != nil {
			stub.SetMetrics(cfg.Metrics.Op(metrics.KindStub, stub.Name()))
			stub.RegisterCounts(cfg.Metrics, "statsm/stub")
		}
		sh.links = append(sh.links, &statsLink{
			link:          lk,
			localCur:      lk.ServerEC.Buffer().NewCursor(),
			remote:        stub,
			pendingLocal:  make(map[uint32]collect.TraceTuple),
			pendingRemote: make(map[uint32]collect.TraceTuple),
			stream:        analysis.NewStream(win),
		})
	}

	// Two gathers over the same hosts: wrapper statistics and per-thread
	// statistics travel in scopes of their own.
	scope := func(name string, thread bool) (*escope.Scope, error) {
		spec := escope.Spec{
			Name:           "statsm/" + name + "/" + tree.Name,
			FrontEnd:       tb.FrontEnd,
			GatewayHelpers: cfg.GatewayHelpers,
			RootHelpers:    cfg.RootHelpers,
			Health:         cfg.Health,
			Retry:          cfg.Retry,
			Metrics:        cfg.Metrics,
		}
		for _, sh := range sm.hosts {
			elem := sh.wrapperElem
			if thread {
				elem = sh.threadElem
			}
			spec.Sources = append(spec.Sources, escope.Source{
				Host: sh.host, Elem: elem, RecSize: analysis.StatsRecordSize, BatchCap: cfg.readBatch(),
			})
		}
		return escope.Build(tb.Net, spec)
	}
	var err error
	if sm.wrapperScope, err = scope("wscope", false); err != nil {
		return nil, err
	}
	if sm.threadScope, err = scope("tscope", true); err != nil {
		return nil, err
	}
	return sm, nil
}

// drainTuples empties cur, a cursor over a trace buffer, into the
// loop-owned batch and hands fn the trace tuples in order; it returns how
// many records it drained (the count the modelled analysis CPU is
// charged for).
func drainTuples(cur *pastset.Cursor, batch *[]byte, fn func(collect.TraceTuple)) int {
	// The drain refuses a buffer of any other record size and hands
	// back nothing, so the error needs no branch of its own.
	raw, n, _ := cur.DrainBytesInto((*batch)[:0], 0, collect.TupleSize)
	*batch = raw
	for off := 0; off < len(raw); off += collect.TupleSize {
		tu, _ := collect.Decode(raw[off : off+collect.TupleSize]) // whole records: cannot be short
		fn(tu)
	}
	return n
}

// analysisBatch drains and processes everything available on one host.
// It returns the number of trace tuples processed. Blocking work (the
// remote trace read and the modelled analysis CPU occupancy) happens
// outside the host lock so a reader is never stalled behind a sleeping
// analysis thread.
func (sm *Statsm) analysisBatch(sh *statsHost, batch *[]byte) int {
	sh.mu.Lock()
	processed := 0

	for _, st := range sh.nodes {
		processed += drainTuples(st.collCur, batch, st.joiner.AddCollective)
		for i, cur := range st.cursors {
			processed += drainTuples(cur, batch, func(tu collect.TraceTuple) { st.joiner.AddContributor(i, tu) })
		}
	}

	// Drain the links' local trace buffers and pick which peers to read
	// remotely this batch. Free-running analysis threads read every
	// peer sequentially per pass, exactly like the paper's statsm
	// ("it reads from 8 hosts sequentially") — the behaviour behind its
	// 5-9% overhead. Coscheduled threads round-robin one link per
	// window so a batch stays short enough to fit it.
	var chosen []*statsLink
	if len(sh.links) > 0 {
		if sm.cfg.Strategy == cosched.None {
			chosen = sh.links
		} else {
			chosen = sh.links[sh.nextLink%len(sh.links) : sh.nextLink%len(sh.links)+1]
			sh.nextLink++
		}
	}
	sh.batches++
	for _, ls := range sh.links {
		processed += drainTuples(ls.localCur, batch, func(tu collect.TraceTuple) { ls.pendingLocal[tu.Seq] = tu })
	}
	sh.mu.Unlock()

	// Remote reads of the peers' tuples: real monitor traffic over the
	// network, contending with the application.
	remote := make(map[*statsLink][]collect.TraceTuple, len(chosen))
	for _, ls := range chosen {
		rep, err := ls.remote.Op(&paths.Ctx{Thread: "statsm"}, paths.Request{Kind: paths.OpRead})
		if err == nil {
			if tuples, err := collect.DecodeAll(rep.Data); err == nil {
				remote[ls] = tuples
			}
		}
	}

	sh.mu.Lock()
	for ls, tuples := range remote {
		for _, tu := range tuples {
			ls.pendingRemote[tu.Seq] = tu
			processed++
		}
	}
	for _, ls := range sh.links {
		for seq, lt := range ls.pendingLocal {
			rt, ok := ls.pendingRemote[seq]
			if !ok {
				continue
			}
			delete(ls.pendingLocal, seq)
			delete(ls.pendingRemote, seq)
			ls.stream.Add(micros(analysis.TCPLatency(rt, lt)))
			ls.samples++
			ls.dirty = true
		}
		// Bound the pending maps against permanently lost halves.
		if len(ls.pendingLocal) > 4096 {
			ls.pendingLocal = make(map[uint32]collect.TraceTuple)
		}
		if len(ls.pendingRemote) > 4096 {
			ls.pendingRemote = make(map[uint32]collect.TraceTuple)
		}
	}

	// Publish result records for everything that changed.
	for _, st := range sh.nodes {
		if !st.dirty {
			continue
		}
		st.dirty = false
		for _, rec := range st.records(st.node.CollectiveEC.ID()) {
			if err := writeStats(sh.wrapperElem, rec); err != nil {
				break
			}
		}
		// Per-thread statistics "are not always needed": publish them
		// at half the wrapper-statistics rate.
		if sh.batches%2 == 0 {
			for i := range st.perThreadArr {
				ecID := st.node.ContribECs[i].ID()
				ra := analysis.StatsRecordFrom(ecID, analysis.KindArrivalWait, st.perThreadArr[i].Snapshot())
				rd := analysis.StatsRecordFrom(ecID, analysis.KindDepartureWait, st.perThreadDep[i].Snapshot())
				if err := writeStats(sh.threadElem, ra); err != nil {
					break
				}
				if err := writeStats(sh.threadElem, rd); err != nil {
					break
				}
			}
		}
	}
	for _, ls := range sh.links {
		if !ls.dirty {
			continue
		}
		ls.dirty = false
		rec := analysis.StatsRecordFrom(ls.link.ClientEC.ID(), analysis.KindTCP, ls.stream.Snapshot())
		if err := writeStats(sh.wrapperElem, rec); err != nil {
			break
		}
	}
	sh.mu.Unlock()

	// The statistics computation costs CPU on the analysed host.
	if processed > 0 && sm.cfg.AnalysisCostPerTuple > 0 {
		sh.host.Occupy(time.Duration(processed) * sm.cfg.AnalysisCostPerTuple)
	}
	return processed
}

// writeStats publishes one statistics record into a host's fixed-record
// result buffer; the scratch stays on the stack (WriteCopy retains
// nothing).
func writeStats(elem *pastset.Element, rec analysis.StatsRecord) error {
	var scratch [analysis.StatsRecordSize]byte
	_, err := elem.WriteCopy(rec.Append(scratch[:0]))
	return err
}

// StartAnalysisOnly launches only the per-host analysis threads, without
// the gather threads — the configuration behind Table 3's "Analysis
// threads" overhead rows.
func (sm *Statsm) StartAnalysisOnly() {
	hosts := make([]*vnet.Host, len(sm.hosts))
	for i, sh := range sm.hosts {
		hosts[i] = sh.host
	}
	sm.threads.start(hosts, sm.cfg.AnalysisInterval, func(i int, batch *[]byte) int {
		return sm.analysisBatch(sm.hosts[i], batch)
	})
}

// Start launches the analysis threads and both gather threads.
func (sm *Statsm) Start() {
	sm.StartAnalysisOnly()
	sink := func(rep paths.Reply) error {
		recs, err := analysis.DecodeStatsRecords(rep.Data)
		if err != nil {
			return err
		}
		for _, r := range recs {
			sm.atree.Update(r)
		}
		return nil
	}
	sm.wrapperPull = sm.wrapperScope.StartPuller(sm.cfg.PullInterval, sink)
	sm.threadPull = sm.threadScope.StartPuller(sm.cfg.PullInterval, sink)
}

// Stop halts all monitor threads. It is idempotent and safe to call
// from multiple goroutines: a boolean guard here raced (both callers
// observe false, both close — the Puller.Stop bug class, flagged by
// the closeonce analyzer), so the whole teardown runs under a
// sync.Once and late callers block until the first finishes.
func (sm *Statsm) Stop() {
	sm.stopOnce.Do(func() {
		sm.threads.halt()
		if sm.wrapperPull != nil {
			sm.wrapperPull.Stop()
		}
		if sm.threadPull != nil {
			sm.threadPull.Stop()
		}
		sm.wrapperScope.Close()
		sm.threadScope.Close()
		for _, sh := range sm.hosts {
			for _, c := range sh.conns {
				c.Close()
			}
			// The intermediate buffers belong to this monitor's analysis
			// threads; releasing them lets a failover replacement re-create
			// them under the same names.
			_ = sh.host.Registry.Remove(sh.wrapperElem.Name())
			_ = sh.host.Registry.Remove(sh.threadElem.Name())
		}
	})
}

// Tree returns the front-end analysis tree.
func (sm *Statsm) Tree() *AnalysisTree { return sm.atree }

// WrapperGatherRate reports the fraction of wrapper-statistics records
// gathered before discard (Table 3, "Wrapper").
func (sm *Statsm) WrapperGatherRate() float64 { return sm.wrapperScope.GatherRate() }

// ThreadGatherRate reports the fraction of per-thread statistics records
// gathered before discard (Table 3, "Thread").
func (sm *Statsm) ThreadGatherRate() float64 { return sm.threadScope.GatherRate() }

// TraceReadRate reports the fraction of trace tuples the analysis threads
// read before the bounded trace buffers discarded them.
func (sm *Statsm) TraceReadRate() float64 {
	var read, skipped uint64
	for _, sh := range sm.hosts {
		sh.mu.Lock()
		for _, st := range sh.nodes {
			read += st.collCur.Read()
			skipped += st.collCur.Skipped()
			for _, cur := range st.cursors {
				read += cur.Read()
				skipped += cur.Skipped()
			}
		}
		for _, ls := range sh.links {
			read += ls.localCur.Read()
			skipped += ls.localCur.Skipped()
		}
		sh.mu.Unlock()
	}
	if read+skipped == 0 {
		return 1
	}
	return float64(read) / float64(read+skipped)
}

// RoundsAnalyzed sums the completed rounds over all wrappers.
func (sm *Statsm) RoundsAnalyzed() uint64 {
	var n uint64
	for _, sh := range sm.hosts {
		sh.mu.Lock()
		for _, st := range sh.nodes {
			n += st.rounds
		}
		sh.mu.Unlock()
	}
	return n
}

// TCPSamples sums the TCP latency samples over all links.
func (sm *Statsm) TCPSamples() uint64 {
	var n uint64
	for _, sh := range sm.hosts {
		sh.mu.Lock()
		for _, ls := range sh.links {
			n += ls.samples
		}
		sh.mu.Unlock()
	}
	return n
}
