package query

import (
	"fmt"
	"sort"
	"sync"

	"eventspace/internal/archive"
	"eventspace/internal/collect"
	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
)

// Sink receives raw tuple batches downstream of the engine. It is the
// same seam the scope puller writes archives through (escope.RawSink);
// *archive.Writer satisfies it. The engine holds one structurally so it
// can interpose on the live stream without importing the scope layer.
type Sink interface {
	AppendRaw(data []byte) error
}

// Engine evaluates standing continuous queries over a tuple stream.
//
// The engine sits between the scope puller and the archive writer: every
// raw batch is forwarded downstream first (so the archive records the
// exact arrival sequence), then evaluated. Evaluation is a pure function
// of that sequence — ticks derive from a watermark over tuple Start
// stamps, never from wall-clock — so replaying the archived data tuples
// through an identically-configured engine regenerates the identical
// alert stream, byte for byte. Fired alerts are appended downstream as
// OpAlert control tuples and retained for Alerts().
//
// Engine methods are safe for one producer goroutine; the virtual
// scheduler serializes pull rounds, so no internal locking is needed
// beyond protecting Alerts() readers.
type Engine struct {
	mu   sync.Mutex
	sink Sink // downstream raw store; nil for replay-only engines

	queries  []*standing
	expected int // coverage() denominator: the collector roster size

	buf       []collect.TraceTuple // retained data tuples, arrival order
	maxWindow int64                // widest window any query looks back
	watermark hrtime.Stamp         // running max of tuple Start stamps

	// prune's memo: of buf[:counted], live tuples start after liveAt.
	// The horizon moves once per tick of the slowest query, so between
	// two moves a tuple is counted once, not once per later tuple.
	liveAt  hrtime.Stamp
	live    int
	counted int

	seq     uint32 // dense per-engine alert sequence
	alerts  []collect.AlertTuple
	onAlert func(collect.AlertTuple)

	env    aggEnv               // the tick under evaluation; its scratch outlives it
	batch  []collect.TraceTuple // AppendRaw's decode scratch, reused per batch
	enc    []byte               // reused alert-tuple encode buffer
	opEval *metrics.Op
}

// standing is one registered alert statement and its trigger state.
type standing struct {
	stmt *Stmt
	hash uint64

	anchored bool         // lastTick was anchored at the first tuple
	lastTick hrtime.Stamp // last evaluated tick
	streak   map[uint16]int
	fired    map[uint16]bool
}

// NewEngine builds an engine that forwards raw batches to sink (nil for
// a replay-only engine that just accumulates alerts).
func NewEngine(sink Sink) *Engine {
	return &Engine{sink: sink}
}

// SetExpected sets the coverage() denominator — the number of collectors
// expected to contribute tuples (live: the registry size; replay: the
// archived metadata's collector count).
func (e *Engine) SetExpected(n int) {
	e.mu.Lock()
	e.expected = n
	e.mu.Unlock()
}

// UseMetrics accounts per-batch evaluation cost in reg under
// KindQuery, tagged with name (nil disables).
func (e *Engine) UseMetrics(reg *metrics.Registry, name string) {
	if reg == nil {
		return
	}
	e.mu.Lock()
	e.opEval = reg.Op(metrics.KindQuery, "query-eval("+name+")")
	e.mu.Unlock()
}

// OnAlert installs a callback invoked inline as each alert fires, after
// it is archived. Callbacks must not block.
func (e *Engine) OnAlert(fn func(collect.AlertTuple)) {
	e.mu.Lock()
	e.onAlert = fn
	e.mu.Unlock()
}

// Register adds a standing alert statement. Only alert statements run
// continuously; selects are one-shot archive queries.
func (e *Engine) Register(s *Stmt) error {
	if !s.Alert {
		return fmt.Errorf("query: only alert statements run continuously (got %q)", s)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.queries = append(e.queries, &standing{
		stmt:   s,
		hash:   s.Hash(),
		streak: make(map[uint16]int),
		fired:  make(map[uint16]bool),
	})
	if w := int64(s.Window); w > e.maxWindow {
		e.maxWindow = w
	}
	for _, w := range privateWindows(s.When) {
		if int64(w) > e.maxWindow {
			e.maxWindow = int64(w)
		}
	}
	return nil
}

// privateWindows collects the private aggregate windows in an alert
// condition (median(latency, 1m) style), which bound buffer retention.
func privateWindows(e Expr) []int64 {
	var out []int64
	var walk func(Expr)
	walk = func(e Expr) {
		switch n := e.(type) {
		case *Agg:
			if n.Window > 0 {
				out = append(out, int64(n.Window))
			}
		case *Not:
			walk(n.X)
		case *In:
			walk(n.X)
		case *Binary:
			walk(n.X)
			walk(n.Y)
		}
	}
	if e != nil {
		walk(e)
	}
	return out
}

// Alerts returns the alerts fired so far, in firing order.
func (e *Engine) Alerts() []collect.AlertTuple {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]collect.AlertTuple(nil), e.alerts...)
}

// AppendRaw forwards the batch downstream, then evaluates it. It is the
// escope.RawSink seam: installing the engine as the puller's sink makes
// every gathered batch flow through the standing queries.
func (e *Engine) AppendRaw(data []byte) error {
	if e.sink != nil {
		if err := e.sink.AppendRaw(data); err != nil {
			return err
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var err error
	e.batch, err = collect.DecodeAppend(e.batch[:0], data)
	if err != nil {
		return fmt.Errorf("query: %v", err)
	}
	start := hrtime.Now()
	defer func() {
		e.opEval.Record(hrtime.Since(start), len(data), nil)
	}()
	for _, t := range e.batch {
		if err := e.offer(t); err != nil {
			return err
		}
	}
	return nil
}

// Offer evaluates one already-decoded tuple without forwarding it —
// the replay path, where the tuples come back out of an archive.
func (e *Engine) Offer(t collect.TraceTuple) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.offer(t)
}

// offer ingests one tuple: control tuples (including archived alerts)
// are ignored, so replaying an archive that already holds alert tuples
// regenerates the stream from the data tuples alone.
func (e *Engine) offer(t collect.TraceTuple) error {
	if t.ECID == collect.ControlECID {
		return nil
	}
	e.buf = append(e.buf, t)
	if t.Start > e.watermark {
		e.watermark = t.Start
	}
	for _, st := range e.queries {
		if err := e.advance(st); err != nil {
			return err
		}
	}
	e.prune()
	return nil
}

// advance fires every tick the watermark has crossed for one standing
// query. Ticks are the multiples of the query's "every" interval; the
// first observed tuple anchors lastTick so a stream starting at a large
// stamp does not replay ticks from the epoch.
func (e *Engine) advance(st *standing) error {
	every := int64(st.stmt.Every)
	if !st.anchored {
		st.anchored = true
		st.lastTick = e.watermark - e.watermark%every
	}
	for e.watermark >= st.lastTick+every {
		st.lastTick += every
		if err := e.tick(st, st.lastTick); err != nil {
			return err
		}
	}
	return nil
}

// tick evaluates one standing query at tick stamp now.
func (e *Engine) tick(st *standing, now hrtime.Stamp) error {
	window := int64(st.stmt.Window)
	lo := now - window
	// One pass collects the in-window tuples across all groups; the
	// grouped case then splits them by ECID.
	var inWin []collect.TraceTuple
	for _, t := range e.buf {
		if t.Start > lo && t.Start <= now {
			inWin = append(inWin, t)
		}
	}
	env := &e.env
	env.all, env.windowAll, env.tick, env.expected = e.buf, inWin, now, e.expected
	present := make(map[uint16]bool)
	if st.stmt.By == FieldECID {
		groups := make(map[uint16][]collect.TraceTuple)
		var order []uint16
		for _, t := range inWin {
			if t.ECID > 0xffff {
				return fmt.Errorf("query: ecid %d too large to group by", t.ECID)
			}
			g := uint16(t.ECID)
			if _, ok := groups[g]; !ok {
				order = append(order, g)
			}
			groups[g] = append(groups[g], t)
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		for _, g := range order {
			present[g] = true
			env.group = groups[g]
			if err := e.judge(st, g, now, env); err != nil {
				return err
			}
		}
	} else {
		present[0] = true
		env.group = inWin
		if err := e.judge(st, 0, now, env); err != nil {
			return err
		}
	}
	// Groups that fell silent lose their streak and re-arm: a condition
	// cannot be "sustained" by absence.
	for g := range st.streak {
		if !present[g] {
			delete(st.streak, g)
		}
	}
	for g := range st.fired {
		if !present[g] {
			delete(st.fired, g)
		}
	}
	return nil
}

// judge evaluates the condition for one group at one tick, maintains
// the consecutive-tick streak, and fires edge-triggered alerts: the
// alert fires once when the streak reaches the "for N rounds" bound and
// re-arms only after the condition goes false.
func (e *Engine) judge(st *standing, g uint16, now hrtime.Stamp, env *aggEnv) error {
	if !evalWhen(st.stmt.When, env).Bool() {
		st.streak[g] = 0
		st.fired[g] = false
		return nil
	}
	st.streak[g]++
	if st.streak[g] < st.stmt.For || st.fired[g] {
		return nil
	}
	st.fired[g] = true
	return e.fire(st, g, now)
}

// fire emits one alert: append it downstream as an OpAlert control
// tuple, retain it, bump the dense sequence, and notify the callback.
func (e *Engine) fire(st *standing, g uint16, now hrtime.Stamp) error {
	a := collect.AlertTuple{QueryHash: st.hash, Group: g, Seq: e.seq, At: now}
	e.seq++
	e.alerts = append(e.alerts, a)
	if e.sink != nil {
		if cap(e.enc) < collect.TupleSize {
			e.enc = make([]byte, collect.TupleSize)
		}
		e.enc = e.enc[:collect.TupleSize]
		collect.EncodeAlert(a).EncodeTo(e.enc)
		if err := e.sink.AppendRaw(e.enc); err != nil {
			return err
		}
	}
	if e.onAlert != nil {
		e.onAlert(a)
	}
	return nil
}

// prune drops retained tuples no future tick can see. A tuple with
// Start s is visible to a tick T when T-W < s <= T for some window W;
// future ticks all exceed the oldest query's lastTick, so anything at
// or before minLastTick - maxWindow is dead. Pruning is amortized: the
// buffer is compacted only once it has doubled past the live region.
// That is a test on the live count after every tuple — the buffer is in
// the checkpoint frame, so a compaction may come neither earlier nor
// later than that — but the count is carried from call to call while
// the horizon stands still, so a tuple is counted once per horizon.
func (e *Engine) prune() {
	if len(e.queries) == 0 {
		e.buf = e.buf[:0]
		e.live, e.counted = 0, 0
		return
	}
	if len(e.buf) < 1024 {
		return
	}
	min := e.queries[0].lastTick
	for _, st := range e.queries[1:] {
		if st.lastTick < min {
			min = st.lastTick
		}
	}
	horizon := min - e.maxWindow
	if horizon != e.liveAt {
		e.liveAt, e.live, e.counted = horizon, 0, 0
	}
	for i := e.counted; i < len(e.buf); i++ {
		if e.buf[i].Start > horizon {
			e.live++
		}
	}
	e.counted = len(e.buf)
	if e.live*2 > len(e.buf) {
		return
	}
	kept := e.buf[:0]
	for i := range e.buf {
		if e.buf[i].Start > horizon {
			kept = append(kept, e.buf[i])
		}
	}
	e.buf = kept
	e.counted = len(kept) // all of them live, which e.live already says
}

// Replay regenerates the alert stream an engine with the given standing
// statements would have produced, from an archive's data tuples alone.
// expected is the coverage() roster size (the archived metadata's
// collector count). Archived alert tuples are ignored on the way in, so
// the result can be compared against them: a faithful archive replays
// to the exact same stream.
func Replay(r *archive.Reader, stmts []*Stmt, expected int) ([]collect.AlertTuple, error) {
	e := NewEngine(nil)
	e.SetExpected(expected)
	for _, s := range stmts {
		if err := e.Register(s); err != nil {
			return nil, err
		}
	}
	var offerErr error
	_, err := r.Scan(archive.Query{}, func(t collect.TraceTuple) bool {
		if err := e.Offer(t); err != nil {
			offerErr = err
			return false
		}
		return true
	})
	if err == nil {
		err = offerErr
	}
	return e.Alerts(), err
}
