package cluster

import (
	"fmt"

	"eventspace/internal/collect"
	"eventspace/internal/metrics"
	"eventspace/internal/pastset"
	"eventspace/internal/paths"
	"eventspace/internal/vnet"
)

// DefaultTraceBufCap is the paper's trace buffer size: one megabyte of
// 28-byte tuples rounded to 3750 per buffer (section 6.1).
const DefaultTraceBufCap = 3750

// TreeSpec describes an allreduce spanning tree to build over a testbed.
type TreeSpec struct {
	Name string
	// Fanout is the host-level tree fanout; the paper uses a
	// hierarchy-aware 8-way tree for Tin, Iron and Copper, and a flat
	// tree for Lead. Fanout <= 0 builds a flat tree.
	Fanout int
	// ThreadsPerHost is the number of computation threads per host
	// ("one computation thread per CPU"); 0 uses the host's CPU count.
	ThreadsPerHost int
	// Instrument inserts event collectors at every figure-1 position.
	Instrument bool
	// TraceBufCap sizes each collector's trace buffer (default 3750).
	TraceBufCap int
	// WANAllToAll replaces the inter-cluster allreduce with the
	// inter-cluster all-to-all exchange used for WAN multi-clusters.
	WANAllToAll bool
	// Notifier, when set, supplies the per-host coscheduling notifier
	// wired into every collective wrapper on that host.
	Notifier func(h *vnet.Host) paths.CollectiveNotifier
	// Metrics, when set, wires every event collector the build creates
	// into the self-metrics registry. nil disables self-metrics.
	Metrics *metrics.Registry
}

// ThreadPort is one application thread's entry into the tree.
type ThreadPort struct {
	Host  *vnet.Host
	Name  string
	Entry paths.Wrapper
}

// Node is one allreduce wrapper of the tree with its instrumentation.
type Node struct {
	Name string
	Host *vnet.Host
	AR   *paths.Allreduce
	// CollectiveEC sits after the wrapper and records t2/t3 (nil when
	// uninstrumented).
	CollectiveEC *collect.EventCollector
	// ContribECs sit on each contributor path before the wrapper and
	// record t1_i/t4_i, indexed by port.
	ContribECs []*collect.EventCollector
	// Children holds the node names feeding the non-thread ports, in
	// port order after the thread ports.
	Children []string
}

// Link is one instrumented inter-host connection of the tree.
type Link struct {
	Name     string
	From, To *vnet.Host
	// ClientEC records t1/t4 before the stub; ServerEC is the first
	// collector called by the communication thread and records t2/t3.
	ClientEC *collect.EventCollector
	ServerEC *collect.EventCollector
}

// Tree is a built spanning tree.
type Tree struct {
	Name       string
	Spec       TreeSpec
	Ports      []ThreadPort
	Nodes      []*Node
	Links      []*Link
	Results    []*pastset.Element
	Exchanges  []*paths.Exchange
	Collectors *collect.Registry

	conns []*vnet.Conn
}

// Close releases the tree's connections.
func (t *Tree) Close() {
	for _, c := range t.conns {
		c.Close()
	}
}

// Abort fails every collective wrapper of the tree with err, releasing
// the threads blocked in them: once one participant has lost its path to
// the tree (no redial layer), no later round can complete.
func (t *Tree) Abort(err error) {
	for _, n := range t.Nodes {
		n.AR.Abort(err)
	}
	for _, ex := range t.Exchanges {
		ex.Abort(err)
	}
}

// ECCount returns the number of event collectors in the tree.
func (t *Tree) ECCount() int { return len(t.Collectors.All()) }

// NodeByName finds a node.
func (t *Tree) NodeByName(name string) (*Node, bool) {
	for _, n := range t.Nodes {
		if n.Name == name {
			return n, true
		}
	}
	return nil, false
}

// treeBuilder carries shared state during construction.
type treeBuilder struct {
	tb   *Testbed
	spec TreeSpec
	tree *Tree
}

// ec inserts an event collector (or passes through when uninstrumented).
func (b *treeBuilder) ec(name string, host *vnet.Host, meta collect.Meta, next paths.Wrapper) (paths.Wrapper, *collect.EventCollector, error) {
	if !b.spec.Instrument {
		return next, nil, nil
	}
	cap := b.spec.TraceBufCap
	if cap <= 0 {
		cap = DefaultTraceBufCap
	}
	meta.Tree = b.spec.Name
	ecw, err := b.tree.Collectors.New(name, host, meta, next, cap)
	if err != nil {
		return nil, nil, err
	}
	return ecw, ecw, nil
}

// remote wires child -> parent with the figure-1 instrumentation:
// [client EC] -> stub -> CT -> [server EC] -> destination. It returns the
// wrapper the child should call.
func (b *treeBuilder) remote(linkName string, from, to *vnet.Host, dest paths.Wrapper) (paths.Wrapper, error) {
	serverChain, serverEC, err := b.ec(linkName+".srv", to, collect.Meta{Role: collect.RoleStubServer, Node: linkName, Contributor: -1}, dest)
	if err != nil {
		return nil, err
	}
	svc := paths.NewService()
	target := svc.Register(serverChain)
	conn := b.tb.Net.Dial(from, to, svc.Handler())
	b.tree.conns = append(b.tree.conns, conn)
	stub := paths.NewRemote(b.spec.Name+"/stub("+linkName+")", from, conn, target)
	clientChain, clientEC, err := b.ec(linkName+".cli", from, collect.Meta{Role: collect.RoleStubClient, Node: linkName, Contributor: -1}, stub)
	if err != nil {
		return nil, err
	}
	b.tree.Links = append(b.tree.Links, &Link{
		Name: linkName, From: from, To: to, ClientEC: clientEC, ServerEC: serverEC,
	})
	return clientChain, nil
}

// node creates the allreduce wrapper for one host, registers it, and
// returns it. next is the wrapper above the node (already including the
// chain towards the root); the node's collective EC is inserted between.
func (b *treeBuilder) node(name string, host *vnet.Host, fanin int, next paths.Wrapper) (*Node, error) {
	upChain, collEC, err := b.ec(name+".coll", host, collect.Meta{Role: collect.RoleCollective, Node: name, Contributor: -1}, next)
	if err != nil {
		return nil, err
	}
	ar, err := paths.NewAllreduce(name, host, fanin, paths.Sum, upChain)
	if err != nil {
		return nil, err
	}
	if b.spec.Notifier != nil {
		ar.SetNotifier(b.spec.Notifier(host))
	}
	n := &Node{
		Name: name, Host: host, AR: ar,
		CollectiveEC: collEC,
		ContribECs:   make([]*collect.EventCollector, fanin),
	}
	b.tree.Nodes = append(b.tree.Nodes, n)
	return n, nil
}

// contribute returns the chain a contributor uses to reach port i of a
// node: [contributor EC] -> port.
func (b *treeBuilder) contribute(n *Node, port int, label string) (paths.Wrapper, error) {
	chain, ec, err := b.ec(
		fmt.Sprintf("%s.c%d", n.Name, port), n.Host,
		collect.Meta{Role: collect.RoleContributor, Node: n.Name, Contributor: port},
		n.AR.Port(port))
	if err != nil {
		return nil, err
	}
	n.ContribECs[port] = ec
	_ = label
	return chain, nil
}

// layout computes the hierarchy-aware host tree: host 0 is the root, the
// remaining hosts are split into up to f contiguous groups, each group's
// first host becomes a child of the root, and the scheme recurses within
// each group. This is the paper's "hierarchy aware, 8-way spanning tree":
// for 49 hosts it yields a root plus eight sub-roots, so collective
// wrappers live on about eight hosts. f <= 0 yields a flat tree.
func layout(n, f int) [][]int {
	kids := make([][]int, n)
	if n <= 1 {
		return kids
	}
	if f <= 0 {
		f = n - 1
	}
	var split func(root int, rest []int)
	split = func(root int, rest []int) {
		if len(rest) == 0 {
			return
		}
		groups := f
		if groups > len(rest) {
			groups = len(rest)
		}
		base := len(rest) / groups
		extra := len(rest) % groups
		off := 0
		for g := 0; g < groups; g++ {
			size := base
			if g < extra {
				size++
			}
			group := rest[off : off+size]
			off += size
			child := group[0]
			kids[root] = append(kids[root], child)
			split(child, group[1:])
		}
	}
	all := make([]int, n-1)
	for i := range all {
		all[i] = i + 1
	}
	split(0, all)
	return kids
}

// buildClusterTree builds the spanning tree inside one cluster; the root
// host's allreduce forwards (through its collective EC) to continuation,
// which must run on the cluster's root host (hosts[0]).
func (b *treeBuilder) buildClusterTree(c *vnet.Cluster, continuation paths.Wrapper) error {
	hosts := c.Hosts()
	n := len(hosts)
	threads := b.spec.ThreadsPerHost
	kidsOf := layout(n, b.spec.Fanout)

	threadCount := func(h *vnet.Host) int {
		if threads > 0 {
			return threads
		}
		return h.CPUs()
	}

	// Construct top-down so each node's upward chain exists when the
	// node is created. A host whose fan-in would be one (a single thread
	// and no child hosts) gets no collective wrapper at all — as in the
	// paper's trees, where only about eight of 49 hosts carry allreduce
	// wrappers; its thread feeds the parent's port directly through the
	// inter-host stub.
	var build func(i int, next paths.Wrapper) error
	build = func(i int, next paths.Wrapper) error {
		h := hosts[i]
		t := threadCount(h)
		kids := kidsOf[i]
		if t == 1 && len(kids) == 0 {
			b.tree.Ports = append(b.tree.Ports, ThreadPort{
				Host: h, Name: h.Name() + ".t0", Entry: next,
			})
			return nil
		}
		name := fmt.Sprintf("%s/%s", b.spec.Name, h.Name())
		node, err := b.node(name, h, t+len(kids), next)
		if err != nil {
			return err
		}
		// Thread ports first.
		for j := 0; j < t; j++ {
			entry, err := b.contribute(node, j, "thread")
			if err != nil {
				return err
			}
			b.tree.Ports = append(b.tree.Ports, ThreadPort{
				Host: h, Name: fmt.Sprintf("%s.t%d", h.Name(), j), Entry: entry,
			})
		}
		// Child-subtree ports.
		for ci, child := range kids {
			port := t + ci
			dest, err := b.contribute(node, port, "child")
			if err != nil {
				return err
			}
			linkName := fmt.Sprintf("%s/link(%s->%s)", b.spec.Name, hosts[child].Name(), h.Name())
			up, err := b.remote(linkName, hosts[child], h, dest)
			if err != nil {
				return err
			}
			if err := build(child, up); err != nil {
				return err
			}
			node.Children = append(node.Children, fmt.Sprintf("%s/%s", b.spec.Name, hosts[child].Name()))
		}
		return nil
	}
	return build(0, continuation)
}

// BuildTree constructs the spanning tree described by spec over the
// testbed: per-cluster hierarchy-aware trees, joined across clusters by an
// inter-cluster allreduce (LAN) or an all-to-all exchange (WAN).
func BuildTree(tb *Testbed, spec TreeSpec) (*Tree, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("cluster: tree needs a name")
	}
	b := &treeBuilder{
		tb:   tb,
		spec: spec,
		tree: &Tree{Name: spec.Name, Spec: spec, Collectors: collect.NewRegistry()},
	}
	b.tree.Collectors.UseMetrics(spec.Metrics)
	clusters := tb.Clusters

	result := func(h *vnet.Host, tag string) (*paths.ValueStore, error) {
		elem, err := h.Registry.CreateFixed(fmt.Sprintf("result/%s%s", spec.Name, tag), 64, 8)
		if err != nil {
			return nil, err
		}
		b.tree.Results = append(b.tree.Results, elem)
		return paths.NewValueStore(spec.Name+"/store"+tag, h, elem), nil
	}

	switch {
	case len(clusters) == 1:
		store, err := result(clusters[0].Hosts()[0], "")
		if err != nil {
			return nil, err
		}
		if err := b.buildClusterTree(clusters[0], store); err != nil {
			return nil, err
		}

	case spec.WANAllToAll:
		// One exchange participant per cluster, on the cluster root
		// host, each storing the reduced value locally.
		k := len(clusters)
		exs := make([]*paths.Exchange, k)
		svcs := make([]*paths.Service, k)
		targets := make([]uint32, k)
		for i, c := range clusters {
			root := c.Hosts()[0]
			store, err := result(root, fmt.Sprintf("@%s", c.Name()))
			if err != nil {
				return nil, err
			}
			ex, err := paths.NewExchange(fmt.Sprintf("%s/x(%s)", spec.Name, c.Name()), root, i, k, paths.Sum, store)
			if err != nil {
				return nil, err
			}
			exs[i] = ex
			svcs[i] = paths.NewService()
			targets[i] = paths.RegisterExchangeTarget(svcs[i], ex)
		}
		for i := range clusters {
			for j := range clusters {
				if i == j {
					continue
				}
				from := clusters[i].Hosts()[0]
				to := clusters[j].Hosts()[0]
				conn := tb.Net.Dial(from, to, svcs[j].Handler())
				b.tree.conns = append(b.tree.conns, conn)
				stub := paths.NewRemote(
					fmt.Sprintf("%s/xstub(%s->%s)", spec.Name, clusters[i].Name(), clusters[j].Name()),
					from, conn, targets[j])
				if err := exs[i].ConnectPeer(j, stub); err != nil {
					return nil, err
				}
			}
		}
		b.tree.Exchanges = exs
		for i, c := range clusters {
			if err := b.buildClusterTree(c, exs[i]); err != nil {
				return nil, err
			}
		}

	default:
		// LAN multi-cluster: inter-cluster allreduce on the first
		// cluster's root host.
		interHost := clusters[0].Hosts()[0]
		store, err := result(interHost, "")
		if err != nil {
			return nil, err
		}
		inter, err := b.node(spec.Name+"/inter", interHost, len(clusters), store)
		if err != nil {
			return nil, err
		}
		for i, c := range clusters {
			dest, err := b.contribute(inter, i, "cluster")
			if err != nil {
				return nil, err
			}
			inter.Children = append(inter.Children, fmt.Sprintf("%s/%s", spec.Name, c.Hosts()[0].Name()))
			cont := dest
			if c.Hosts()[0] != interHost {
				linkName := fmt.Sprintf("%s/link(%s->%s)", spec.Name, c.Hosts()[0].Name(), interHost.Name())
				cont, err = b.remote(linkName, c.Hosts()[0], interHost, dest)
				if err != nil {
					return nil, err
				}
			}
			if err := b.buildClusterTree(c, cont); err != nil {
				return nil, err
			}
		}
	}
	return b.tree, nil
}
