package checkpoint

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"eventspace/internal/analysis"
	"eventspace/internal/collect"
	"eventspace/internal/monitor"
)

// FuzzCheckpointDecode hammers the frame decoder with torn, bit-flipped
// and adversarial inputs. The contract: Decode never panics; a frame
// that decodes successfully re-encodes into a frame that decodes to the
// same checkpoint, every section of it — corrupt bytes can never
// masquerade as a CRC-passing checkpoint that then misbehaves — and
// restoring it into a shadow and feeding it either fails cleanly or
// works: contributor ids in a frame index fixed-size round slots, so
// none may reach one unchecked.
func FuzzCheckpointDecode(f *testing.F) {
	// Corpus: valid frames of growing complexity, their torn prefixes,
	// and a few degenerate shapes.
	for _, n := range []int{0, 37, 151} {
		frame := Encode(snapshotFromStream(f, n))
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		f.Add(frame[:headerSize])
	}
	f.Add([]byte{})
	f.Add([]byte("ECK1"))
	f.Add(make([]byte, headerSize))
	// Well-formed frames whose pending rounds carry a contributor id one
	// past the fan-in, and a negative one — once in each half. (After
	// 147 tuples both halves hold a partial round of node "a".)
	for _, id := range []int32{3, -1} {
		cp := snapshotFromStream(f, 147)
		cp.Stats.Nodes[0].Joiner.Pending[0].Contribs[0].ID = id
		f.Add(Encode(cp))
		cp = snapshotFromStream(f, 147)
		cp.LA.Joins[0].Join.Pending[0].Contribs[0].ID = id
		f.Add(Encode(cp))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := Decode(data)
		if err != nil {
			return
		}
		re := Encode(cp)
		cp2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !bytes.Equal(Encode(cp2), re) {
			t.Fatal("re-decoded checkpoint encodes to different bytes")
		}
		want, _ := Decode(data) // a copy of cp that canonical may rewrite
		canonical(reflect.ValueOf(&want).Elem())
		canonical(reflect.ValueOf(&cp2).Elem())
		if !reflect.DeepEqual(cp2, want) {
			t.Fatalf("re-encode round trip drifted: %+v vs %+v", cp2, want)
		}
		restoreAndFeed(cp)
	})
}

// canonical rewrites v in place so that reflect.DeepEqual sees through
// the two differences that do not make checkpoints differ: an empty slice
// becomes nil, and a NaN (never equal to itself) becomes zero — the
// byte comparison beside it already holds NaN payloads to their bits.
func canonical(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		if math.IsNaN(v.Float()) {
			v.SetFloat(0)
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.SetZero()
		}
		for i := 0; i < v.Len(); i++ {
			canonical(v.Index(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			canonical(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			canonical(v.Field(i))
		}
	}
}

// restoreAndFeed restores the shadow a decoded frame describes and
// feeds it one tuple per port. Errors are fine; the fuzzer is looking
// for panics. The roster is built from the state's own node sets, as the
// archived collector metadata would supply it — one node per join, the
// statistics nodes paired with the joins in order while their fan-ins
// agree — which is also what bounds a fan-in or a window in the product,
// so the harness bounds them too rather than allocate whatever a fuzzed
// frame asks for.
func restoreAndFeed(cp Checkpoint) {
	const maxFanin, maxWindow = 64, 1024
	sane := func(k int) bool { return k >= 1 && k <= maxFanin }
	feed := func(ecid, seq uint32) collect.TraceTuple {
		return collect.TraceTuple{ECID: ecid, Seq: seq, Start: 5, End: 9}
	}
	// A sequence number the snapshot holds pending, so the fed tuples
	// land in restored slots as well as fresh ones.
	seq := uint32(1)
	if cp.Stats.Window > maxWindow {
		return
	}

	var roster []monitor.ReplayNode
	ecid := uint32(1 << 30) // clear of the small collective ids frames carry
	for i, nj := range cp.LA.Joins {
		if !sane(nj.Join.K) {
			return
		}
		if len(nj.Join.Pending) > 0 {
			seq = nj.Join.Pending[0].Seq
		}
		n := monitor.ReplayNode{Name: nj.Node}
		for c := 0; c < nj.Join.K; c++ {
			n.Contributors = append(n.Contributors, ecid)
			ecid++
		}
		if i < len(cp.Stats.Nodes) && cp.Stats.Nodes[i].Joiner.K == nj.Join.K {
			n.Collective, n.HasCollective = cp.Stats.Nodes[i].NodeID, true
		}
		roster = append(roster, n)
	}
	if rep, err := monitor.NewReplay(roster, 0); err == nil && rep.Restore(cp.LA, cp.Stats) == nil {
		for _, n := range roster {
			for _, id := range n.Contributors {
				rep.Feed(feed(id, seq))
			}
			rep.Feed(feed(n.Collective, seq))
		}
		rep.Tree()
		rep.State()
	}

	// Every statistics node's state through the analysis constructors
	// directly, paired with a join or not.
	for _, ns := range cp.Stats.Nodes {
		k := ns.Joiner.K
		if !sane(k) {
			return
		}
		if len(ns.Joiner.Pending) > 0 {
			seq = ns.Joiner.Pending[0].Seq
		}
		if j, err := analysis.NewJoiner(k, ns.Joiner.MaxPending, func(analysis.RoundMetrics) {}); err == nil && j.Restore(ns.Joiner) == nil {
			j.AddCollective(feed(0, seq))
			for c := -1; c <= k; c++ {
				j.AddContributor(c, feed(0, seq))
			}
			j.State()
		}
		for _, ss := range []analysis.StreamState{ns.Down, ns.Up, ns.Total, ns.ArrWait, ns.DepWait} {
			if ss.Window > maxWindow {
				continue
			}
			if s, err := analysis.NewStreamFrom(ss); err == nil {
				s.Add(1.5)
				s.Snapshot()
				s.State()
			}
		}
	}
}
