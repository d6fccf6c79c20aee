// Degradation-mode recording and replay. A scope's mode transitions are
// first-class events: the archive recorder persists each one as a
// control tuple (collect.ModeTuple on the reserved ECID 0), and
// ModeReplay reconstructs the transition sequence from an archive scan —
// so replaying a degraded run reproduces not just the data the monitor
// saw but *when and how far* the monitor had degraded while seeing it.
package monitor

import (
	"sort"

	"eventspace/internal/collect"
	"eventspace/internal/escope"
)

// EncodeModeChange renders one scope mode transition as the archive's
// control tuple. The scope name travels as its FNV-64 hash (the tuple
// format has no string field); replay matches on the same hash.
func EncodeModeChange(ch escope.ModeChange) collect.TraceTuple {
	return collect.EncodeMode(collect.ModeTuple{
		ScopeHash: collect.HashName(ch.Scope),
		From:      uint8(ch.From),
		To:        uint8(ch.To),
		Seq:       ch.Seq,
		At:        ch.At,
	})
}

// ModeReplay reconstructs a scope's degradation-ladder history from
// archived control tuples.
type ModeReplay struct {
	scope string
	hash  uint64

	changes []escope.ModeChange
	fed     uint64
	matched uint64
}

// NewModeReplay builds a replay driver for the named scope's mode
// transitions (other scopes' control tuples are ignored).
func NewModeReplay(scope string) *ModeReplay {
	return &ModeReplay{scope: scope, hash: collect.HashName(scope)}
}

// Feed offers one archived tuple. Data tuples and other scopes' control
// tuples are ignored.
func (r *ModeReplay) Feed(t collect.TraceTuple) {
	r.fed++
	m, ok := collect.DecodeMode(t)
	if !ok || m.ScopeHash != r.hash {
		return
	}
	r.matched++
	r.changes = append(r.changes, escope.ModeChange{
		Scope: r.scope,
		From:  escope.Mode(m.From),
		To:    escope.Mode(m.To),
		Seq:   m.Seq,
		At:    m.At,
	})
}

// Changes returns the reconstructed transitions ordered by their dense
// per-scope sequence — the same order the live scope logged them,
// whatever order the archive scan delivered the tuples in.
func (r *ModeReplay) Changes() []escope.ModeChange {
	out := make([]escope.ModeChange, len(r.changes))
	copy(out, r.changes)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
