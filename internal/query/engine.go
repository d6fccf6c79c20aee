package query

import (
	"fmt"
	"slices"
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
	seeded    bool                 // watermark holds a tuple's stamp, not its zero start

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

	// A tick's scratch, kept from tick to tick: the query window, the
	// same tuples scattered by ECID, the window's distinct ECIDs, and
	// per-ECID slots, current where stamped with gen.
	win     []collect.TraceTuple
	grouped []collect.TraceTuple
	order   []uint16
	slots   []ecidSlot
	gen     uint32
}

// ecidSlot is one ECID's grouping scratch. gen is the grouped tick that
// last saw the ECID; pos counts its tuples, then is where the next one
// is scattered to, and ends one past the ECID's group.
type ecidSlot struct {
	gen uint32
	pos int32
}

// standing is one registered alert statement and its trigger state.
type standing struct {
	stmt *Stmt
	hash uint64

	anchored bool         // lastTick was anchored at the first tuple
	lastTick hrtime.Stamp // last evaluated tick
	from     int          // buf[:from] all start at or before the last tick's window
	trig     []trigger    // by group, grown on demand
	active   []uint16     // the groups whose trigger is not zero
}

// trigger is one group's edge-trigger state: how many consecutive ticks
// its condition has held, and whether it fired in that run.
type trigger struct {
	streak int
	fired  bool
}

// trigger returns group g's trigger, growing the table to hold it.
func (st *standing) trigger(g uint16) *trigger {
	if int(g) >= len(st.trig) {
		st.trig = append(st.trig, make([]trigger, int(g)+1-len(st.trig))...)
	}
	return &st.trig[g]
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
	e.queries = append(e.queries, &standing{stmt: s, hash: s.Hash()})
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
	err = e.offer(e.batch)
	e.opEval.Record(hrtime.Since(start), len(data), err)
	return err
}

// Offer evaluates already-decoded tuples without forwarding them — the
// replay path, where the tuples come back out of an archive a block at
// a time. The engine copies what it keeps; batch is not retained.
func (e *Engine) Offer(batch []collect.TraceTuple) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.offer(batch)
}

// offer ingests a batch in order: control tuples (including archived
// alerts) are ignored, so replaying an archive that already holds alert
// tuples regenerates the stream from the data tuples alone.
func (e *Engine) offer(batch []collect.TraceTuple) error {
	for i := range batch {
		t := &batch[i]
		if t.ECID == collect.ControlECID {
			continue
		}
		e.buf = append(e.buf, *t)
		// The first data tuple seeds the watermark, so a stream whose
		// stamps never rise above zero still crosses ticks.
		raised := !e.seeded || t.Start > e.watermark
		if raised {
			e.watermark, e.seeded = t.Start, true
		}
		for _, st := range e.queries {
			// Only a risen watermark, or a query's first tuple, can
			// cross one of its ticks.
			if !raised && st.anchored {
				continue
			}
			if err := e.advance(st); err != nil {
				return err
			}
		}
		e.prune()
	}
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
		st.lastTick = bucketOf(e.watermark, every)
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
	lo := now - int64(st.stmt.Window)
	// Ticks only rise, so a tuple at or before this tick's lo is outside
	// every later window of the query too: the cursor passes it for good.
	for st.from < len(e.buf) && e.buf[st.from].Start <= lo {
		st.from++
	}
	win := e.win[:0]
	for _, t := range e.buf[st.from:] {
		if t.Start > lo && t.Start <= now {
			win = append(win, t)
		}
	}
	e.win = win
	env := &e.env
	env.all, env.windowAll, env.tick, env.expected = e.buf, win, now, e.expected
	grouped := st.stmt.By == FieldECID
	if grouped {
		if err := e.group(win); err != nil {
			return err
		}
		start := 0
		for _, g := range e.order {
			end := int(e.slots[g].pos)
			env.group = e.grouped[start:end]
			start = end
			if err := e.judge(st, g, now, env); err != nil {
				return err
			}
		}
	} else {
		env.group = win
		if err := e.judge(st, 0, now, env); err != nil {
			return err
		}
	}
	// Groups that fell silent lose their streak and re-arm: a condition
	// cannot be "sustained" by absence.
	active := st.active[:0]
	for _, g := range st.active {
		if tr := &st.trig[g]; *tr != (trigger{}) && e.present(g, grouped) {
			active = append(active, g)
		} else {
			*tr = trigger{}
		}
	}
	st.active = active
	return nil
}

// group scatters the window into e.grouped by ECID — groups in
// ascending ECID order, each in window order — and lists the distinct
// ECIDs, sorted, in e.order. Group g ends at e.slots[g].pos.
func (e *Engine) group(win []collect.TraceTuple) error {
	e.gen++
	if e.gen == 0 { // wrapped: no slot may keep a stamp from the last lap
		clear(e.slots)
		e.gen = 1
	}
	e.order = e.order[:0]
	for i := range win {
		id := win[i].ECID
		if id > 0xffff {
			return fmt.Errorf("query: ecid %d too large to group by", id)
		}
		if int(id) >= len(e.slots) {
			e.slots = append(e.slots, make([]ecidSlot, int(id)+1-len(e.slots))...)
		}
		s := &e.slots[id]
		if s.gen != e.gen {
			s.gen, s.pos = e.gen, 0
			e.order = append(e.order, uint16(id))
		}
		s.pos++
	}
	slices.Sort(e.order)
	var off int32
	for _, g := range e.order {
		s := &e.slots[g]
		s.pos, off = off, off+s.pos
	}
	e.grouped = slices.Grow(e.grouped[:0], len(win))[:len(win)]
	for i := range win {
		s := &e.slots[win[i].ECID]
		e.grouped[s.pos] = win[i]
		s.pos++
	}
	return nil
}

// present reports whether group g had tuples in the tick just judged.
// An ungrouped query has the one group 0, present even when empty.
func (e *Engine) present(g uint16, grouped bool) bool {
	if !grouped {
		return g == 0
	}
	return int(g) < len(e.slots) && e.slots[g].gen == e.gen
}

// judge evaluates the condition for one group at one tick, maintains
// the consecutive-tick streak, and fires edge-triggered alerts: the
// alert fires once when the streak reaches the "for N rounds" bound and
// re-arms only after the condition goes false.
func (e *Engine) judge(st *standing, g uint16, now hrtime.Stamp, env *aggEnv) error {
	tr := st.trigger(g)
	if !evalWhen(st.stmt.When, env).Bool() {
		*tr = trigger{}
		return nil
	}
	if *tr == (trigger{}) {
		st.active = append(st.active, g)
	}
	tr.streak++
	if tr.streak < st.stmt.For || tr.fired {
		return nil
	}
	tr.fired = true
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
	for _, st := range e.queries {
		st.from = 0
	}
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
	_, err := r.ScanBatches(nil, archive.Query{}, archive.AllColumns, func(batch []collect.TraceTuple) bool {
		offerErr = e.Offer(batch)
		return offerErr == nil
	})
	if err == nil {
		err = offerErr
	}
	return e.Alerts(), err
}
