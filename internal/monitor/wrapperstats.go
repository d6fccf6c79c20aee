package monitor

import (
	"time"

	"eventspace/internal/analysis"
)

// wrapperKinds counts the statistics kept per collective wrapper:
// analysis.KindDown through analysis.KindDepartureWait.
const wrapperKinds = analysis.KindDepartureWait - analysis.KindDown + 1

// wrapperStats is the statistics monitor's per-wrapper operator
// (section 4.3): one collective wrapper's rounds, joined on the tuple
// sequence number, folded into five latency streams — down, up, total,
// arrival wait, departure wait — in microseconds. The live monitor
// (statsNode: trace-buffer cursors in, result records out) and the
// archive replay (Replay: archived tuples in, analysis tree out)
// are this one operator behind different feeds.
type wrapperStats struct {
	joiner  *analysis.Joiner
	streams [wrapperKinds]*analysis.Stream // by kind, see stream
	rounds  uint64
}

// build sets up the join over k contributors and empty streams. emit is
// the join's completed-round hook: ws.fold, or a function that calls it.
func (ws *wrapperStats) build(k, maxPending, window int, emit func(analysis.RoundMetrics)) error {
	for i := range ws.streams {
		ws.streams[i] = analysis.NewStream(window)
	}
	var err error
	ws.joiner, err = analysis.NewJoiner(k, maxPending, emit)
	return err
}

func (ws *wrapperStats) stream(kind int) *analysis.Stream { return ws.streams[kind-analysis.KindDown] }

// micros is the streams' unit.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// fold takes one completed round into the five streams.
func (ws *wrapperStats) fold(m analysis.RoundMetrics) {
	ws.rounds++
	for _, c := range m.Per {
		ws.stream(analysis.KindDown).Add(micros(c.Down))
		ws.stream(analysis.KindUp).Add(micros(c.Up))
		ws.stream(analysis.KindTotal).Add(micros(c.Total))
		ws.stream(analysis.KindArrivalWait).Add(micros(c.ArrivalWait))
		ws.stream(analysis.KindDepartureWait).Add(micros(c.DepartureWait))
	}
}

// records snapshots the five statistics as wrapper id's result records,
// in kind order.
func (ws *wrapperStats) records(id uint32) [wrapperKinds]analysis.StatsRecord {
	var out [wrapperKinds]analysis.StatsRecord
	for i, s := range ws.streams {
		out[i] = analysis.StatsRecordFrom(id, analysis.KindDown+i, s.Snapshot())
	}
	return out
}

// state snapshots the operator as node id's checkpoint state.
func (ws *wrapperStats) state(id uint32) StatsNodeState {
	ns := StatsNodeState{NodeID: id, Rounds: ws.rounds, Joiner: ws.joiner.State()}
	for i, s := range ns.streams() {
		*s = ws.streams[i].State()
	}
	return ns
}

// restore overwrites the operator with a snapshot. The join keeps its
// emit hook — fold reads the streams at call time, so the ones
// installed here are the ones it folds into.
func (ws *wrapperStats) restore(ns *StatsNodeState) error {
	ws.rounds = ns.Rounds
	if err := ws.joiner.Restore(ns.Joiner); err != nil {
		return err
	}
	for i, s := range ns.streams() {
		str, err := analysis.NewStreamFrom(*s)
		if err != nil {
			return err
		}
		ws.streams[i] = str
	}
	return nil
}
