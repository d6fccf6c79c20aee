// Package vnet is the virtual cluster substrate that stands in for the
// paper's physical testbed (the Copper, Lead, Tin and Iron clusters, their
// gateways, 100 Mbit / Gigabit Ethernet links, and the front-end host).
//
// A Network holds clusters of Hosts. Each host has a fixed number of CPU
// slots; every modelled compute section — application computation,
// communication-system message processing, monitor analysis — runs while
// holding a slot, so analysis threads perturb the application through
// exactly the contention mechanism the paper describes (on the paper's
// single-CPU hosts, analysis threads steal the CPU from the communication
// system threads on the collective's critical path).
//
// Inter-host messages are modelled with latency + size/bandwidth delays.
// All traffic entering or leaving a cluster passes through the cluster's
// gateway host, which charges CPU occupancy per transit — reproducing the
// paper's shared-gateway bottleneck. Modelled delays are waits on the
// virtual clock: under it they take their modelled value and no real
// time, and on the wall clock they take none at all, so a hop costs only
// the host time of its code. Each side of a call — the client's round
// trip, the communication thread's reply and next request — runs as one
// vclock Path, one park each.
package vnet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eventspace/internal/hrtime"
	"eventspace/internal/pastset"
	"eventspace/internal/vclock"
)

// ErrConnClosed is returned by Call on a closed connection.
var ErrConnClosed = errors.New("vnet: connection closed")

// LinkSpec models a network link: a fixed per-message latency plus a
// serialization delay of size/Bandwidth.
type LinkSpec struct {
	Latency   time.Duration
	Bandwidth float64 // bytes per second; <=0 means infinite
}

// Delay returns the modelled one-way delay for a message of size bytes.
func (l LinkSpec) Delay(size int) time.Duration {
	d := l.Latency
	if l.Bandwidth > 0 && size > 0 {
		d += time.Duration(float64(size) / l.Bandwidth * float64(time.Second))
	}
	return d
}

// Standard links from the paper's testbed.
var (
	// GigabitEthernet is the Tin/Iron intra-cluster link.
	GigabitEthernet = LinkSpec{Latency: 55 * time.Microsecond, Bandwidth: 110e6}
	// FastEthernet is the Copper/Lead intra-cluster and all inter-cluster
	// LAN link (100 Mbit).
	FastEthernet = LinkSpec{Latency: 90 * time.Microsecond, Bandwidth: 11e6}
)

// CostModel holds the per-message CPU occupancy charges of the modelled
// communication system (TCP stack + PATHS communication thread work) and
// the loopback latency for same-host messages.
type CostModel struct {
	SendCPU      time.Duration // charged on the sending host per message
	RecvCPU      time.Duration // charged on the receiving host per message
	GatewayCPU   time.Duration // charged on each gateway a message transits
	LocalLatency time.Duration // same-host delivery latency
	// WakeLatency models the scheduler wakeup of the thread that
	// handles an arriving message (2005-era LinuxThreads context
	// switch); it delays the message without occupying a CPU slot and
	// is charged once on the serving side and once on the caller when
	// the reply arrives.
	WakeLatency time.Duration
}

// DefaultCostModel returns charges calibrated to the paper's 2005-era
// hosts (tens of microseconds of TCP/IP processing per small message).
func DefaultCostModel() CostModel {
	return CostModel{
		SendCPU:      7 * time.Microsecond,
		RecvCPU:      10 * time.Microsecond,
		GatewayCPU:   8 * time.Microsecond,
		LocalLatency: 4 * time.Microsecond,
		WakeLatency:  45 * time.Microsecond,
	}
}

// Host is a machine in the virtual testbed: a name, a number of CPU slots,
// and a PastSet registry holding the host's elements.
type Host struct {
	name    string
	cluster *Cluster
	slots   *vclock.Sem
	ncpu    int

	Registry *pastset.Registry

	busyNS atomic.Int64 // accumulated modelled CPU occupancy
}

// Name returns the host's name.
func (h *Host) Name() string { return h.name }

// Cluster returns the cluster this host belongs to (nil for standalone
// hosts such as the monitor front-end).
func (h *Host) Cluster() *Cluster { return h.cluster }

// CPUs returns the host's CPU slot count.
func (h *Host) CPUs() int { return h.ncpu }

// Occupy claims a CPU slot for d of modelled time, modelling a compute
// section, and charges the time it held the slot to the accounting
// counter: d under the virtual clock, nothing on the wall clock, where
// modelled delays cost no time.
func (h *Host) Occupy(d time.Duration) {
	var p vclock.Path
	h.occupy(&p, d)
	p.Run()
}

// occupy appends Occupy(d)'s steps to p.
func (h *Host) occupy(p *vclock.Path, d time.Duration) {
	p.Acquire(h.slots)
	p.Sleep(d)
	p.Release(h.slots)
	if vclock.Active() {
		p.Add(&h.busyNS, int64(d))
	}
}

// Cluster is a set of hosts sharing an intra-cluster link and a gateway.
// All traffic to or from the cluster transits the gateway host.
type Cluster struct {
	name    string
	site    string
	intra   LinkSpec
	hosts   []*Host
	gateway *Host
}

// Name returns the cluster name.
func (c *Cluster) Name() string { return c.name }

// Site returns the WAN site this cluster is placed at.
func (c *Cluster) Site() string { return c.site }

// Hosts returns the compute hosts (excluding the gateway).
func (c *Cluster) Hosts() []*Host { return c.hosts }

// Gateway returns the cluster's gateway host.
func (c *Cluster) Gateway() *Host { return c.gateway }

// WANDelayFunc computes the one-way delay for a message of size bytes
// between two WAN sites. It is provided by the Longcut emulator in package
// wantrace.
type WANDelayFunc func(fromSite, toSite string, size int) time.Duration

// Network is the whole virtual testbed.
type Network struct {
	mu       sync.RWMutex
	hosts    map[string]*Host
	clusters map[string]*Cluster
	inter    LinkSpec // LAN link between cluster gateways at the same site
	cost     CostModel
	wanDelay WANDelayFunc // nil: all sites reachable via inter link

	msgs atomic.Int64 // messages transmitted, for accounting

	faults atomic.Pointer[Injector] // active fault injector, or nil

	connsMu sync.Mutex
	conns   map[*Conn]uint64 // open modelled connections, for fault resets, by dial order
	dialled uint64
}

// NewNetwork creates an empty testbed whose inter-cluster LAN uses the
// given link and whose hosts use the given cost model.
func NewNetwork(inter LinkSpec, cost CostModel) *Network {
	return &Network{
		hosts:    make(map[string]*Host),
		clusters: make(map[string]*Cluster),
		inter:    inter,
		cost:     cost,
		conns:    make(map[*Conn]uint64),
	}
}

// SetWANDelay installs a WAN delay function (the Longcut emulator). When
// set, messages between clusters at different sites use it instead of the
// LAN inter-cluster link.
func (n *Network) SetWANDelay(f WANDelayFunc) { n.wanDelay = f }

// Messages reports the total messages transmitted through the network.
func (n *Network) Messages() uint64 { return uint64(n.msgs.Load()) }

func (n *Network) addHost(name string, cpus int, c *Cluster) (*Host, error) {
	if cpus < 1 {
		return nil, fmt.Errorf("vnet: host %q: cpus %d < 1", name, cpus)
	}
	h := &Host{
		name:     name,
		cluster:  c,
		slots:    vclock.NewSem(cpus),
		ncpu:     cpus,
		Registry: pastset.NewRegistry(),
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.hosts[name]; ok {
		return nil, fmt.Errorf("vnet: host %q already exists", name)
	}
	n.hosts[name] = h
	return h, nil
}

// AddCluster creates a cluster of nhosts compute hosts named
// "<name>-0".."<name>-N" plus a gateway host "<name>-gw", each with the
// given CPU slot count, connected by the intra link, placed at site.
func (n *Network) AddCluster(name, site string, nhosts, cpusPerHost int, intra LinkSpec) (*Cluster, error) {
	if nhosts < 1 {
		return nil, fmt.Errorf("vnet: cluster %q: nhosts %d < 1", name, nhosts)
	}
	n.mu.Lock()
	if _, ok := n.clusters[name]; ok {
		n.mu.Unlock()
		return nil, fmt.Errorf("vnet: cluster %q already exists", name)
	}
	n.mu.Unlock()
	c := &Cluster{name: name, site: site, intra: intra}
	for i := 0; i < nhosts; i++ {
		h, err := n.addHost(fmt.Sprintf("%s-%d", name, i), cpusPerHost, c)
		if err != nil {
			return nil, err
		}
		c.hosts = append(c.hosts, h)
	}
	gw, err := n.addHost(name+"-gw", cpusPerHost, c)
	if err != nil {
		return nil, err
	}
	c.gateway = gw
	n.mu.Lock()
	n.clusters[name] = c
	n.mu.Unlock()
	return c, nil
}

// AddStandaloneHost creates a host outside any cluster (e.g. the monitor
// front-end). It reaches clusters through their gateways over the
// inter-cluster LAN link.
func (n *Network) AddStandaloneHost(name string, cpus int) (*Host, error) {
	return n.addHost(name, cpus, nil)
}

// ClusterByName looks up a cluster by name.
func (n *Network) ClusterByName(name string) (*Cluster, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	c, ok := n.clusters[name]
	if !ok {
		return nil, fmt.Errorf("vnet: cluster %q not found", name)
	}
	return c, nil
}

// interSegmentDelay returns the delay of the gateway-to-gateway segment.
func (n *Network) interSegmentDelay(from, to *Cluster, size int) time.Duration {
	fromSite, toSite := siteOf(from), siteOf(to)
	if n.wanDelay != nil && fromSite != toSite {
		return n.wanDelay(fromSite, toSite, size)
	}
	return n.inter.Delay(size)
}

// The segments of a message's way, the argument of a leg's Delay.
const (
	segFrom  = iota // a's cluster link, to a's gateway
	segInter        // gateway to gateway
	segTo           // b's cluster link, from b's gateway
)

// leg is one message of a call on its way from host a to host b.
type leg struct {
	net  *Network
	a, b *Host
	msg  *[]byte
}

// Delay draws the delay of one segment of the leg for the message's size
// when the segment starts: a reply's size is known only once its wait
// step has taken it, and a WAN segment's draw moves the emulator's
// per-pair cursor, so the order of the draws is part of the model.
func (l *leg) Delay(seg int) time.Duration {
	size := len(*l.msg)
	switch seg {
	case segFrom:
		return l.a.cluster.intra.Delay(size)
	case segTo:
		return l.b.cluster.intra.Delay(size)
	}
	return l.net.interSegmentDelay(l.a.cluster, l.b.cluster, size)
}

// transit appends to p the steps of moving l's message: the message
// count, link delays on every segment and gateway CPU occupancy for every
// gateway transited. The caller's Run blocks it for the modelled time,
// which is how PATHS stubs experience network latency.
func (n *Network) transit(p *vclock.Path, l *leg) {
	a, b := l.a, l.b
	p.Add(&n.msgs, 1)
	if a == b {
		p.Sleep(n.cost.LocalLatency)
		return
	}
	ca, cb := a.cluster, b.cluster
	if ca != nil && ca == cb {
		p.SleepDrawn(l, segFrom)
		return
	}
	// Cross-cluster (or to/from a standalone host): hop to our gateway,
	// cross the inter-cluster segment, hop from the remote gateway.
	if ca != nil && a != ca.gateway {
		p.SleepDrawn(l, segFrom)
		ca.gateway.occupy(p, n.cost.GatewayCPU)
	}
	p.SleepDrawn(l, segInter)
	if cb != nil && b != cb.gateway {
		cb.gateway.occupy(p, n.cost.GatewayCPU)
		p.SleepDrawn(l, segTo)
	}
}

func siteOf(c *Cluster) string {
	if c == nil {
		return ""
	}
	return c.site
}

// OneWayDelay reports the modelled pure link delay (no CPU or queueing)
// from a to b for a message of size bytes. Useful for tests and for
// latency-bound reasoning in the harness.
func (n *Network) OneWayDelay(a, b *Host, size int) time.Duration {
	if a == b {
		return n.cost.LocalLatency
	}
	ca, cb := a.cluster, b.cluster
	if ca != nil && ca == cb {
		return ca.intra.Delay(size)
	}
	var d time.Duration
	if ca != nil && a != ca.gateway {
		d += ca.intra.Delay(size)
	}
	d += n.interSegmentDelay(ca, cb, size)
	if cb != nil && b != cb.gateway {
		d += cb.intra.Delay(size)
	}
	return d
}

// Handler processes a request payload on the serving host and returns the
// response payload. It runs on the server's communication thread and may
// block (e.g. inside an allreduce wrapper).
type Handler func(payload []byte) ([]byte, error)

// Caller is the client side of a request/response transport. Both the
// in-process modelled connection and the real TCP transport implement it.
type Caller interface {
	Call(payload []byte) ([]byte, error)
	Close() error
}

// roundTrip is one Call on its way: the request the communication thread
// pops, the reply event it fires, the reply as the client's wait step
// took it, and the two legs whose link steps read their sizes.
type roundTrip struct {
	payload []byte
	reply   vclock.Event
	resp    []byte
	fwd     leg
	back    leg
}

// Conn is a modelled connection between a client host and a server host,
// served by one communication thread (CT) on the server — the paper's
// "CT serving one TCP/IP connection". Requests are processed serially in
// arrival order; the CT charges receive-side CPU per message and the
// client charges send-side CPU, so monitor traffic contends with
// application traffic for the same host CPUs.
type Conn struct {
	net    *Network
	client *Host
	server *Host
	reqs   *vclock.Queue[*roundTrip]

	inflightMu sync.Mutex
	inflight   map[*roundTrip]struct{} // calls not yet returned, for Close to fail
}

// Dial opens a connection from client to server whose communication
// thread invokes handler for every request. Dialling always succeeds —
// like a TCP SYN to a dead host, failure only surfaces on the first Call.
func (n *Network) Dial(client, server *Host, handler Handler) *Conn {
	c := n.dial(client, server)
	vclock.Go(func() { c.serve(handler) })
	return c
}

// dial opens and registers the connection whose thread the caller
// starts.
func (n *Network) dial(client, server *Host) *Conn {
	c := &Conn{
		net:      n,
		client:   client,
		server:   server,
		reqs:     vclock.NewQueue[*roundTrip](),
		inflight: make(map[*roundTrip]struct{}),
	}
	n.connsMu.Lock()
	n.dialled++
	n.conns[c] = n.dialled
	n.connsMu.Unlock()
	return c
}

// serve is the communication thread. The handler runs on it; everything
// else — the reply's send-side CPU, its fire, the pop of the next
// request, the wake-up and the receive-side CPU — is one Path after it.
func (c *Conn) serve(handler Handler) {
	cost := c.net.cost
	var p vclock.Path // Run leaves it empty for the next chain
	var req *roundTrip
	c.next(&p, &req)
	for p.Run() == nil {
		// A straggler host (FaultSlow) serves every message with inflated
		// CPU work: the extra time occupies a slot, so the slowdown
		// contends with everything else running on the host — the same
		// mechanism that makes a genuinely overloaded host slow.
		if inj := c.net.injector(); inj != nil {
			if extra := inj.slowServe(c.server, c.client); extra > 0 {
				c.server.Occupy(extra)
			}
		}
		payload, err := handler(req.payload)
		// Send-side processing of the reply charges the server CPU.
		c.server.occupy(&p, cost.SendCPU)
		p.Fire(&req.reply, payload, err)
		c.next(&p, &req)
	}
}

// next appends to p the communication thread's way to its next request:
// pop it into req, wake up, and charge receive-side processing to the
// server CPU. A closed queue ends the chain.
func (c *Conn) next(p *vclock.Path, req **roundTrip) {
	c.reqs.PopStep(p, req)
	p.Sleep(c.net.cost.WakeLatency)
	c.server.occupy(p, c.net.cost.RecvCPU)
}

// Call sends a request and blocks until the response returns, modelling
// the full round trip: client send CPU, forward transit, serial CT
// processing, handler execution, reply transit, client receive CPU. The
// client's side of it is one Path: the request's push and the reply's
// wait are its steps, and the reply legs draw their delays from the
// reply the wait step took.
//
// Under an active fault plan a call can instead fail: ErrHostDown when
// either endpoint is crashed (after the connect-refused latency),
// ErrTimeout when the traffic crosses a partition or a message leg is
// dropped, and ErrConnClosed when the connection was reset.
func (c *Conn) Call(payload []byte) ([]byte, error) {
	if c.reqs.Closed() {
		// Writing to a closed connection fails locally, before any
		// network interaction.
		return nil, ErrConnClosed
	}
	var cf callFaults
	if inj := c.net.injector(); inj != nil {
		if inj.hostDown(c.server) || inj.hostDown(c.client) {
			// Connect refused: the destination's stack answers (or the
			// local stack fails) after roughly one propagation delay.
			hrtime.Sleep(c.net.OneWayDelay(c.client, c.server, 0))
			return nil, ErrHostDown
		}
		if inj.cut(c.client, c.server) {
			// Blackholed: nothing answers until the caller gives up.
			hrtime.Sleep(inj.plan.timeout())
			return nil, ErrTimeout
		}
		cf = inj.planCall(c.client, c.server)
	}

	cost := c.net.cost
	var p vclock.Path
	c.client.occupy(&p, cost.SendCPU)
	if cf.spikeReq {
		p.Sleep(cf.spikeDelay)
	}
	if cf.dropReq {
		// The request is lost in flight; the handler never runs.
		p.Sleep(cf.timeout)
		p.Run()
		return nil, ErrTimeout
	}
	cl := &roundTrip{payload: payload}
	cl.fwd, cl.back = leg{c.net, c.client, c.server, &cl.payload}, leg{c.net, c.server, c.client, &cl.resp}
	// In flight until Call returns: Close fails the call whether it is
	// queued or being served (its reply event is first-fire-wins).
	c.inflightMu.Lock()
	c.inflight[cl] = struct{}{}
	c.inflightMu.Unlock()
	defer func() {
		c.inflightMu.Lock()
		delete(c.inflight, cl)
		c.inflightMu.Unlock()
	}()

	c.net.transit(&p, &cl.fwd)
	c.reqs.PushStep(&p, cl)
	if cf.dropRep {
		// The reply is lost: the server processes the request (side
		// effects happen) but the caller never sees the response.
		p.Sleep(cf.timeout)
		if p.Run() != nil {
			return nil, ErrConnClosed
		}
		return nil, ErrTimeout
	}
	p.Wait(&cl.reply, &cl.resp)
	if cf.spikeRep {
		p.Sleep(cf.spikeDelay)
	}
	c.net.transit(&p, &cl.back)
	p.Sleep(cost.WakeLatency)
	c.client.occupy(&p, cost.RecvCPU)
	if err := p.Run(); err != nil {
		if errors.Is(err, vclock.ErrClosed) {
			// The push found the connection closed.
			return nil, ErrConnClosed
		}
		return nil, err
	}
	return cl.resp, nil
}

// Close shuts the connection down. Queued calls and the call currently
// being served both fail with ErrConnClosed (the reply event is
// first-fire-wins, so a handler completing later is harmless).
func (c *Conn) Close() error {
	c.net.connsMu.Lock()
	delete(c.net.conns, c)
	c.net.connsMu.Unlock()
	for _, cl := range c.reqs.Close() {
		cl.reply.Fire(nil, ErrConnClosed)
	}
	c.inflightMu.Lock()
	for cl := range c.inflight {
		cl.reply.Fire(nil, ErrConnClosed)
	}
	c.inflightMu.Unlock()
	return nil
}

// resetConnsMatching closes every open connection the predicate selects.
func (n *Network) resetConnsMatching(match func(*Conn) bool) {
	n.connsMu.Lock()
	var victims []*Conn
	for c := range n.conns {
		if match(c) {
			victims = append(victims, c)
		}
	}
	// Close in dial order, not map order: the calls each close fails
	// wake up in that order, which under the virtual clock is part of
	// the schedule.
	sort.Slice(victims, func(i, j int) bool { return n.conns[victims[i]] < n.conns[victims[j]] })
	n.connsMu.Unlock()
	for _, c := range victims {
		c.Close()
	}
}

var _ Caller = (*Conn)(nil)
