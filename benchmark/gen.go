package main

import "encoding/binary"

// The generator is the benchmark's own: it knows the 28-byte trace tuple
// the paper defines (section 4.2) and the shape of an allreduce spanning
// tree, and nothing of the program's packages, so the bytes it makes for a
// seed stay the same however the program is refactored.

// tupleSize is the encoded size of a trace tuple.
const tupleSize = 28

// Tuple is one trace tuple: collector id, operation kind, return value,
// per-collector sequence number (the allreduce round), and the entry and
// exit stamps in nanoseconds.
type Tuple struct {
	ECID  uint32
	Op    uint16
	Ret   int16
	Seq   uint32
	Start int64
	End   int64
}

// encodeTo packs t into buf in the little-endian wire layout.
func (t Tuple) encodeTo(buf []byte) {
	binary.LittleEndian.PutUint32(buf[0:4], t.ECID)
	binary.LittleEndian.PutUint16(buf[4:6], t.Op)
	binary.LittleEndian.PutUint16(buf[6:8], uint16(t.Ret))
	binary.LittleEndian.PutUint32(buf[8:12], t.Seq)
	binary.LittleEndian.PutUint64(buf[12:20], uint64(t.Start))
	binary.LittleEndian.PutUint64(buf[20:28], uint64(t.End))
}

// hash is FNV-1a over the tuple's wire bytes. Summed over a set of tuples
// (wrapping) it gives an order-insensitive fingerprint of the set.
func (t Tuple) hash() uint64 {
	var buf [tupleSize]byte
	t.encodeTo(buf[:])
	h := uint64(14695981039346656037)
	for _, b := range buf {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// tupleSet fingerprints a multiset of data tuples: how many, and the
// wrapping sum of their hashes.
type tupleSet struct {
	n   uint64
	sum uint64
}

func (s *tupleSet) add(t Tuple) {
	s.n++
	s.sum += t.hash()
}

// TopoNode is one allreduce wrapper of the monitored tree, in collector
// indices (positions in Topology.IDs): its collective collector, one
// contributor collector per local thread, and its child subtrees.
type TopoNode struct {
	Collective int
	Threads    []int
	Children   []TopoChild
}

// TopoChild is one child subtree of a node: the contributor collector on
// the node's port, the client and server collectors of the inter-host
// link, and the child's own wrapper (nil when the child host has a single
// thread and no wrapper of its own).
type TopoChild struct {
	Contributor int
	Client      int
	Server      int
	Node        *TopoNode
}

// Topology is the collector roster and tree shape the generator models.
type Topology struct {
	IDs   []uint32 // collector id by collector index
	Root  *TopoNode
	Nodes int // allreduce wrappers in the tree
}

// rng is splitmix64: a few lines the benchmark owns, so a seed means the
// same stream on every toolchain.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// Modelled costs of one allreduce round, in nanoseconds. With two link
// hops up and two down, thread jitter and one straggler, a round on the
// 16-host tree lasts about 500 µs — the paper's figure for 32 Tins.
const (
	genLinkNS      = 90_000  // one-way inter-host transit
	genLinkJitter  = 10_000  // seeded spread of a transit
	genThreadJit   = 40_000  // spread of thread arrival at the round start
	genStraggleMin = 100_000 // the round's straggler arrives this much later ...
	genStraggleVar = 150_000 // ... plus up to this
	genHopNS       = 2_000   // a wrapper-to-wrapper step on one host
	genStoreNS     = 5_000   // the root's result store
	genErrPerMille = 1       // share of tuples recording a failed operation
)

// stream is a generated sequence of rounds in the order collectors write
// it: round by round, and within a round by collector index.
type stream struct {
	tuples []Tuple  // decoded form, for reference answers
	data   []byte   // the same tuples encoded back to back
	src    []uint16 // collector index of each tuple
	rounds int
	endNS  int64 // stamp at which the last round completed
}

type generator struct {
	rng    rng
	start  []int64 // entry stamp by collector index, this round
	end    []int64 // exit stamp
	thread int     // running thread counter within a round
	slow   int     // this round's straggler thread
	slowBy int64
}

// generate models rounds allreduce rounds on topo. The same topology, seed
// and round count always give identical bytes.
func generate(topo Topology, seed uint64, rounds int, opWrite uint16) *stream {
	g := &generator{
		rng:   rng{s: seed},
		start: make([]int64, len(topo.IDs)),
		end:   make([]int64, len(topo.IDs)),
	}
	per := len(topo.IDs)
	st := &stream{
		tuples: make([]Tuple, 0, rounds*per),
		data:   make([]byte, rounds*per*tupleSize),
		src:    make([]uint16, 0, rounds*per),
		rounds: rounds,
	}
	threads := countThreads(topo.Root)
	now := int64(1_000_000) // stamps stay positive: start at 1 ms
	for r := 0; r < rounds; r++ {
		g.thread = 0
		g.slow = int(g.rng.intn(int64(threads)))
		g.slowBy = genStraggleMin + g.rng.intn(genStraggleVar)
		ready := g.up(topo.Root, now)
		root := topo.Root.Collective
		g.start[root] = ready
		g.end[root] = ready + genStoreNS
		g.down(topo.Root, g.end[root])
		roundEnd := now
		for c := 0; c < per; c++ {
			t := Tuple{ECID: topo.IDs[c], Op: opWrite, Seq: uint32(r), Start: g.start[c], End: g.end[c]}
			if g.rng.intn(1000) < genErrPerMille {
				t.Ret = -1
			}
			t.encodeTo(st.data[len(st.tuples)*tupleSize:])
			st.tuples = append(st.tuples, t)
			st.src = append(st.src, uint16(c))
			if t.End > roundEnd {
				roundEnd = t.End
			}
		}
		now = roundEnd + genHopNS
	}
	st.endNS = now
	return st
}

func countThreads(n *TopoNode) int {
	c := len(n.Threads)
	for _, ch := range n.Children {
		if ch.Node == nil {
			c++
		} else {
			c += countThreads(ch.Node)
		}
	}
	return c
}

// arrival is when the next thread of the round contributes.
func (g *generator) arrival(now int64) int64 {
	a := now + g.rng.intn(genThreadJit)
	if g.thread == g.slow {
		a += g.slowBy
	}
	g.thread++
	return a
}

func (g *generator) link() int64 { return genLinkNS + g.rng.intn(genLinkJitter) }

// up stamps the entry side of every collector below n and returns when n
// has all its contributions.
func (g *generator) up(n *TopoNode, now int64) int64 {
	var ready int64
	for _, c := range n.Threads {
		g.start[c] = g.arrival(now)
		if g.start[c] > ready {
			ready = g.start[c]
		}
	}
	for _, ch := range n.Children {
		if ch.Node == nil {
			g.start[ch.Client] = g.arrival(now)
		} else {
			sub := g.up(ch.Node, now)
			g.start[ch.Node.Collective] = sub
			g.start[ch.Client] = sub + genHopNS
		}
		g.start[ch.Server] = g.start[ch.Client] + g.link()
		g.start[ch.Contributor] = g.start[ch.Server] + genHopNS
		if g.start[ch.Contributor] > ready {
			ready = g.start[ch.Contributor]
		}
	}
	return ready + genHopNS
}

// down stamps the exit side as the result returns from n at time at.
func (g *generator) down(n *TopoNode, at int64) {
	for _, c := range n.Threads {
		g.end[c] = at + genHopNS
	}
	for _, ch := range n.Children {
		g.end[ch.Contributor] = at + genHopNS
		g.end[ch.Server] = g.end[ch.Contributor] + genHopNS
		g.end[ch.Client] = g.end[ch.Server] + g.link()
		if ch.Node != nil {
			g.end[ch.Node.Collective] = g.end[ch.Client] + genHopNS
			g.down(ch.Node, g.end[ch.Node.Collective])
		}
	}
}
