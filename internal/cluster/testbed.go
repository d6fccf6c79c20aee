// Package cluster reproduces the paper's testbed (section 5) and the
// collective-operation spanning trees run on it: the four clusters
// (Copper, Lead, Tin, Iron) with their gateways, the monitor front-end,
// LAN multi-clusters, WAN multi-clusters under the Longcut emulator, and
// the spanning-tree generators — hierarchy-aware 8-way trees, flat trees,
// inter-cluster allreduce for LAN and inter-cluster all-to-all for WAN
// (as in MagPIe).
package cluster

import (
	"fmt"
	"time"

	"eventspace/internal/vnet"
	"eventspace/internal/wantrace"
)

// Class describes a host class from the paper's inventory.
type Class struct {
	Name string
	// CPUs is the modelled CPU slot count. The paper's Tin and Iron
	// hosts are single-CPU Pentium 4s with Hyper-Threading enabled;
	// HT is not a second CPU, so they are modelled with one slot —
	// which is what makes analysis threads contend with communication
	// threads exactly as in section 6.3.1.
	CPUs int
	Link vnet.LinkSpec
}

// The paper's host classes.
var (
	// Copper: 18 dual-CPU Pentium II 300 MHz, 100 Mbit Ethernet.
	Copper = Class{Name: "copper", CPUs: 2, Link: vnet.FastEthernet}
	// Lead: 10 single-CPU Mobile Pentium III 900 MHz, 100 Mbit Ethernet.
	Lead = Class{Name: "lead", CPUs: 1, Link: vnet.FastEthernet}
	// Tin: 51 Pentium 4 HT 3.2 GHz, Gigabit Ethernet.
	Tin = Class{Name: "tin", CPUs: 1, Link: vnet.GigabitEthernet}
	// Iron: 39 Pentium 4 HT 3.2 GHz EM64T, Gigabit Ethernet.
	Iron = Class{Name: "iron", CPUs: 1, Link: vnet.GigabitEthernet}
)

// ClusterSpec places a number of hosts of one class at a site.
type ClusterSpec struct {
	Name  string
	Class Class
	Hosts int
	Site  string
}

// TestbedSpec describes a whole testbed.
type TestbedSpec struct {
	Clusters []ClusterSpec
	// WAN enables the Longcut emulator between different sites.
	WAN bool
	// WANSeed seeds the synthetic latency/bandwidth trace.
	WANSeed int64
	// WANInaccuracyThreshold reproduces the emulator's degradation with
	// many concurrent emulated connections (0 disables).
	WANInaccuracyThreshold int
}

// Testbed is a built virtual testbed.
type Testbed struct {
	Net      *vnet.Network
	Clusters []*vnet.Cluster
	FrontEnd *vnet.Host
	Emulator *wantrace.Emulator // nil unless WAN
}

// NewTestbed builds the testbed described by spec.
func NewTestbed(spec TestbedSpec) (*Testbed, error) {
	if len(spec.Clusters) == 0 {
		return nil, fmt.Errorf("cluster: testbed has no clusters")
	}
	cost := vnet.DefaultCostModel()
	if spec.WAN {
		// Longcut gateways add their delays in user space, which is
		// heavier than plain kernel forwarding.
		cost.GatewayCPU = 25 * time.Microsecond
	}
	net := vnet.NewNetwork(vnet.FastEthernet, cost)
	tb := &Testbed{Net: net}
	for _, cs := range spec.Clusters {
		if cs.Hosts < 1 {
			return nil, fmt.Errorf("cluster: %q: %d hosts", cs.Name, cs.Hosts)
		}
		c, err := net.AddCluster(cs.Name, cs.Site, cs.Hosts, cs.Class.CPUs, cs.Class.Link)
		if err != nil {
			return nil, err
		}
		tb.Clusters = append(tb.Clusters, c)
	}
	// The monitor front end: the paper uses a Pentium 4 1.8 GHz outside
	// the clusters, modelled with two CPUs.
	fe, err := net.AddStandaloneHost("frontend", 2)
	if err != nil {
		return nil, err
	}
	tb.FrontEnd = fe
	if spec.WAN {
		emu := wantrace.NewEmulator(wantrace.Generate(spec.WANSeed, 4096))
		emu.InaccuracyThreshold = spec.WANInaccuracyThreshold
		net.SetWANDelay(emu.Delay)
		tb.Emulator = emu
	}
	return tb, nil
}

// Hosts returns all compute hosts of all clusters, cluster by cluster.
func (tb *Testbed) Hosts() []*vnet.Host {
	var out []*vnet.Host
	for _, c := range tb.Clusters {
		out = append(out, c.Hosts()...)
	}
	return out
}

// Standard topologies used by the paper's experiments. Host counts are
// parameters so the suite can run scaled down; the paper's counts are the
// defaults exposed by the bench harness.

// SingleTin is a one-cluster testbed of n Tin hosts at Tromsø.
func SingleTin(n int) TestbedSpec {
	return TestbedSpec{Clusters: []ClusterSpec{
		{Name: "tin", Class: Tin, Hosts: n, Site: wantrace.Tromso},
	}}
}

// LANMulti is the paper's LAN multi-cluster: Tin and Iron hosts joined by
// 100 Mbit inter-cluster Ethernet at one site.
func LANMulti(tin, iron int) TestbedSpec {
	return TestbedSpec{Clusters: []ClusterSpec{
		{Name: "tin", Class: Tin, Hosts: tin, Site: wantrace.Tromso},
		{Name: "iron", Class: Iron, Hosts: iron, Site: wantrace.Tromso},
	}}
}

// LANMultiFour adds Copper and Lead, the largest LAN topology in table 1.
func LANMultiFour(tin, copper, lead int) TestbedSpec {
	return TestbedSpec{Clusters: []ClusterSpec{
		{Name: "tin", Class: Tin, Hosts: tin, Site: wantrace.Tromso},
		{Name: "copper", Class: Copper, Hosts: copper, Site: wantrace.Tromso},
		{Name: "lead", Class: Lead, Hosts: lead, Site: wantrace.Tromso},
	}}
}

// WANMulti splits Tin and Iron into the paper's six sub-clusters spread
// over the four trace sites (two sub-clusters in Tromsø and Odense), each
// behind its own gateway running the Longcut emulator.
func WANMulti(tinPerSub, ironPerSub int, seed int64, inaccuracyThreshold int) TestbedSpec {
	sites := []string{
		wantrace.Tromso, wantrace.Trondheim, wantrace.Odense,
		wantrace.Tromso, wantrace.Odense, wantrace.Aalborg,
	}
	spec := TestbedSpec{WAN: true, WANSeed: seed, WANInaccuracyThreshold: inaccuracyThreshold}
	for i := 0; i < 3; i++ {
		spec.Clusters = append(spec.Clusters, ClusterSpec{
			Name: fmt.Sprintf("tin%d", i), Class: Tin, Hosts: tinPerSub, Site: sites[i],
		})
	}
	for i := 0; i < 3; i++ {
		spec.Clusters = append(spec.Clusters, ClusterSpec{
			Name: fmt.Sprintf("iron%d", i), Class: Iron, Hosts: ironPerSub, Site: sites[3+i],
		})
	}
	return spec
}
