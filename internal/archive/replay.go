package archive

import (
	"fmt"

	"eventspace/internal/collect"
	"eventspace/internal/monitor"
	"eventspace/internal/paths"
)

// NewReplay builds the front end's replay from archived collector
// metadata. One walk groups the contributor and collective collectors by
// tree node, each contributor at its index; stub collectors take no
// part. window is the statistics' sliding median window (values < 1 use
// the analysis default). A roster no live tree could have written is
// refused rather than misread: an ECID listed twice, a node with two
// collective collectors or with a collective and no contributors, a
// contributor index that is negative, taken, or leaves a gap below the
// node's fan-in.
func NewReplay(infos []CollectorInfo, window int) (*monitor.Replay, error) {
	if len(infos) == 0 {
		return nil, fmt.Errorf("archive: no collector metadata (missing %s?)", MetaFileName)
	}
	type nodeKey struct{ tree, node string }
	type node struct {
		monitor.ReplayNode
		byIndex map[int]uint32 // contributor index -> ECID
	}
	var nodes []*node
	byKey := make(map[nodeKey]*node)
	ids := make(map[uint32]bool, len(infos))
	for _, in := range infos {
		if ids[in.ID] {
			return nil, fmt.Errorf("archive: %s lists ECID %d twice", MetaFileName, in.ID)
		}
		ids[in.ID] = true
		if in.Role != collect.RoleContributor && in.Role != collect.RoleCollective {
			continue
		}
		key := nodeKey{in.Tree, in.Node}
		n := byKey[key]
		if n == nil {
			n = &node{ReplayNode: monitor.ReplayNode{Name: in.Node}, byIndex: make(map[int]uint32)}
			byKey[key] = n
			nodes = append(nodes, n)
		}
		if in.Role == collect.RoleCollective {
			if n.HasCollective {
				return nil, fmt.Errorf("archive: %s: node %q has two collective collectors", MetaFileName, in.Node)
			}
			n.Collective, n.HasCollective = in.ID, true
			continue
		}
		if _, taken := n.byIndex[in.Contributor]; taken || in.Contributor < 0 {
			return nil, fmt.Errorf("archive: %s: node %q: contributor index %d is negative or taken", MetaFileName, in.Node, in.Contributor)
		}
		n.byIndex[in.Contributor] = in.ID
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("archive: metadata has no contributor collectors")
	}
	roster := make([]monitor.ReplayNode, len(nodes))
	for i, n := range nodes {
		n.Contributors = make([]uint32, len(n.byIndex))
		for c := range n.Contributors {
			id, ok := n.byIndex[c]
			if !ok {
				return nil, fmt.Errorf("archive: %s: node %q has %d contributors but none at index %d", MetaFileName, n.Name, len(n.byIndex), c)
			}
			n.Contributors[c] = id
		}
		roster[i] = n.ReplayNode
	}
	return monitor.NewReplay(roster, window)
}

// ReplayLastArrival is ReplayStats at the analysis default's median
// window: one scan rebuilds both of the front end's trees, and the
// result's Weighted() tree matches the live single-scope monitor's
// verdicts whenever neither side lost rounds.
func ReplayLastArrival(r *Reader, infos []CollectorInfo, q Query) (*monitor.Replay, ScanStats, error) {
	return ReplayStats(r, infos, q, 0)
}

// ReplayStats scans the archive and re-runs the front end's joins
// offline: the load-balance monitor's last-arrival reduction and statsm's
// wrapper statistics. infos is the archived collector metadata
// (ReadMeta, or MetaFromRegistry against a live registry); q restricts
// which tuples are replayed (zero Query: all); window is the sliding
// median window (values < 1 use the analysis default).
func ReplayStats(r *Reader, infos []CollectorInfo, q Query, window int) (*monitor.Replay, ScanStats, error) {
	rep, err := NewReplay(infos, window)
	if err != nil {
		return nil, ScanStats{}, err
	}
	stats, err := r.ScanBatches(nil, q, AllColumns, func(batch []collect.TraceTuple) bool {
		for _, t := range batch {
			rep.Feed(t)
		}
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	return rep, stats, nil
}

// ReplayAlerts scans the archive for continuous-query alert control
// tuples and returns them in archive (firing) order. The ECID/op
// restriction rides the header-index pushdown, so segments without
// control tuples are skipped without decoding. Comparing the result
// against a query-engine replay of the same archive's data tuples
// verifies the alert stream end to end.
func ReplayAlerts(r *Reader, q Query) ([]collect.AlertTuple, ScanStats, error) {
	q.ECIDs = []uint32{collect.ControlECID}
	q.Ops = []paths.OpKind{paths.OpAlert}
	var out []collect.AlertTuple
	stats, err := r.ScanBatches(nil, q, AllColumns, func(batch []collect.TraceTuple) bool {
		for _, t := range batch {
			if a, ok := collect.DecodeAlert(t); ok {
				out = append(out, a)
			}
		}
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}
