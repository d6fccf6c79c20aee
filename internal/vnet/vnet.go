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
// virtual clock (hrtime.Sleep): under it they take their modelled value
// and no real time, and on the wall clock they take none at all, so a
// hop costs only the host time of its code.
package vnet

import (
	"errors"
	"fmt"
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

// Acquire claims one CPU slot, blocking until one is free.
func (h *Host) Acquire() { h.slots.Acquire() }

// Release returns a CPU slot claimed with Acquire.
func (h *Host) Release() { h.slots.Release() }

// Occupy claims a CPU slot for d of modelled time, modelling a compute
// section, and charges the time it held the slot to the accounting
// counter: d under the virtual clock, nothing on the wall clock, where
// modelled delays cost no time.
func (h *Host) Occupy(d time.Duration) {
	h.Acquire()
	hrtime.Sleep(d)
	h.Release()
	if vclock.Active() {
		h.busyNS.Add(int64(d))
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

	msgs atomic.Uint64 // messages transmitted, for accounting

	faults atomic.Pointer[Injector] // active fault injector, or nil

	connsMu sync.Mutex
	conns   map[*Conn]struct{} // open modelled connections, for fault resets
}

// NewNetwork creates an empty testbed whose inter-cluster LAN uses the
// given link and whose hosts use the given cost model.
func NewNetwork(inter LinkSpec, cost CostModel) *Network {
	return &Network{
		hosts:    make(map[string]*Host),
		clusters: make(map[string]*Cluster),
		inter:    inter,
		cost:     cost,
		conns:    make(map[*Conn]struct{}),
	}
}

// SetWANDelay installs a WAN delay function (the Longcut emulator). When
// set, messages between clusters at different sites use it instead of the
// LAN inter-cluster link.
func (n *Network) SetWANDelay(f WANDelayFunc) { n.wanDelay = f }

// Messages reports the total messages transmitted through the network.
func (n *Network) Messages() uint64 { return n.msgs.Load() }

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
	fromSite, toSite := "", ""
	if from != nil {
		fromSite = from.site
	}
	if to != nil {
		toSite = to.site
	}
	if n.wanDelay != nil && fromSite != toSite {
		return n.wanDelay(fromSite, toSite, size)
	}
	return n.inter.Delay(size)
}

// transit models moving a message of size bytes from host a to host b:
// link delays on every segment plus gateway CPU occupancy for every
// gateway transited. It blocks the calling goroutine for the modelled
// time, which is how PATHS stubs experience network latency.
func (n *Network) transit(a, b *Host, size int) {
	n.msgs.Add(1)
	if a == b {
		hrtime.Sleep(n.cost.LocalLatency)
		return
	}
	ca, cb := a.cluster, b.cluster
	if ca != nil && ca == cb {
		hrtime.Sleep(ca.intra.Delay(size))
		return
	}
	// Cross-cluster (or to/from a standalone host): hop to our gateway,
	// cross the inter-cluster segment, hop from the remote gateway.
	if ca != nil && a != ca.gateway {
		hrtime.Sleep(ca.intra.Delay(size))
		ca.gateway.Occupy(n.cost.GatewayCPU)
	}
	hrtime.Sleep(n.interSegmentDelay(ca, cb, size))
	if cb != nil && b != cb.gateway {
		cb.gateway.Occupy(n.cost.GatewayCPU)
		hrtime.Sleep(cb.intra.Delay(size))
	}
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

type request struct {
	payload []byte
	reply   *vclock.Event
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
	reqs   *vclock.Queue[request]

	inflightMu sync.Mutex
	inflight   map[*vclock.Event]struct{} // picked up, reply not yet fired
}

// Dial opens a connection from client to server whose communication
// thread invokes handler for every request. Dialling always succeeds —
// like a TCP SYN to a dead host, failure only surfaces on the first Call.
func (n *Network) Dial(client, server *Host, handler Handler) *Conn {
	c := &Conn{
		net:      n,
		client:   client,
		server:   server,
		reqs:     vclock.NewQueue[request](),
		inflight: make(map[*vclock.Event]struct{}),
	}
	n.connsMu.Lock()
	n.conns[c] = struct{}{}
	n.connsMu.Unlock()
	vclock.Go(func() { c.serve(handler) })
	return c
}

func (c *Conn) serve(handler Handler) {
	for {
		req, ok := c.reqs.Pop()
		if !ok {
			return
		}
		c.inflightMu.Lock()
		c.inflight[req.reply] = struct{}{}
		c.inflightMu.Unlock()
		// The communication thread wakes up, then receive-side
		// processing charges the server CPU.
		hrtime.Sleep(c.net.cost.WakeLatency)
		c.server.Occupy(c.net.cost.RecvCPU)
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
		c.server.Occupy(c.net.cost.SendCPU)
		c.inflightMu.Lock()
		delete(c.inflight, req.reply)
		c.inflightMu.Unlock()
		req.reply.Fire(payload, err)
	}
}

// Call sends a request and blocks until the response returns, modelling
// the full round trip: client send CPU, forward transit, serial CT
// processing, handler execution, reply transit, client receive CPU.
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

	c.client.Occupy(c.net.cost.SendCPU)
	if cf.spikeReq {
		hrtime.Sleep(cf.spikeDelay)
	}
	if cf.dropReq {
		// The request is lost in flight; the handler never runs.
		hrtime.Sleep(cf.timeout)
		return nil, ErrTimeout
	}
	c.net.transit(c.client, c.server, len(payload))

	req := request{payload: payload, reply: vclock.NewEvent()}
	if err := c.reqs.Push(req); err != nil {
		return nil, ErrConnClosed
	}
	if cf.dropRep {
		// The reply is lost: the server processes the request (side
		// effects happen) but the caller never sees the response.
		hrtime.Sleep(cf.timeout)
		return nil, ErrTimeout
	}
	resp, err := req.reply.Wait()
	if err != nil {
		return nil, err
	}
	if cf.spikeRep {
		hrtime.Sleep(cf.spikeDelay)
	}
	c.net.transit(c.server, c.client, len(resp))
	hrtime.Sleep(c.net.cost.WakeLatency)
	c.client.Occupy(c.net.cost.RecvCPU)
	return resp, nil
}

// Close shuts the connection down. Queued calls and the call currently
// being served both fail with ErrConnClosed (the reply event is
// first-fire-wins, so a handler completing later is harmless).
func (c *Conn) Close() error {
	c.net.connsMu.Lock()
	delete(c.net.conns, c)
	c.net.connsMu.Unlock()
	for _, req := range c.reqs.Close() {
		req.reply.Fire(nil, ErrConnClosed)
	}
	c.inflightMu.Lock()
	for ev := range c.inflight {
		ev.Fire(nil, ErrConnClosed)
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
	n.connsMu.Unlock()
	for _, c := range victims {
		c.Close()
	}
}

var _ Caller = (*Conn)(nil)
