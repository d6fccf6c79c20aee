package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"eventspace/internal/collect"
	"eventspace/internal/paths"
	"eventspace/internal/vclock"
	"eventspace/internal/vnet"
	"eventspace/internal/wantrace"
)

// virtual runs the rest of the test on the discrete-event clock, so the
// trees' modelled delays cost no real time. The test goroutine is a
// driver; runTree starts the threads as model goroutines.
func virtual(t *testing.T) {
	t.Helper()
	vclock.Enable(0, vclock.DefaultSeed)
	t.Cleanup(func() {
		vclock.Quiesce(10 * time.Second)
		vclock.Disable()
	})
}

func TestNewTestbedValidation(t *testing.T) {
	if _, err := NewTestbed(TestbedSpec{}); err == nil {
		t.Fatal("empty testbed accepted")
	}
	if _, err := NewTestbed(TestbedSpec{Clusters: []ClusterSpec{{Name: "x", Class: Tin, Hosts: 0}}}); err == nil {
		t.Fatal("0 hosts accepted")
	}
}

func TestPaperClassInventory(t *testing.T) {
	if Copper.CPUs != 2 || Lead.CPUs != 1 || Tin.CPUs != 1 || Iron.CPUs != 1 {
		t.Fatal("CPU counts diverge from the modelled inventory")
	}
	if Tin.Link != vnet.GigabitEthernet || Lead.Link != vnet.FastEthernet {
		t.Fatal("link classes wrong")
	}
}

func TestSingleTinTestbed(t *testing.T) {
	tb, err := NewTestbed(SingleTin(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Clusters) != 1 || len(tb.Clusters[0].Hosts()) != 8 {
		t.Fatal("cluster shape wrong")
	}
	if tb.FrontEnd == nil || tb.FrontEnd.Cluster() != nil {
		t.Fatal("front-end wrong")
	}
	if tb.Emulator != nil {
		t.Fatal("LAN testbed has an emulator")
	}
	if len(tb.Hosts()) != 8 {
		t.Fatalf("Hosts() = %d", len(tb.Hosts()))
	}
}

func TestWANMultiTestbed(t *testing.T) {
	tb, err := NewTestbed(WANMulti(2, 2, 7, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Clusters) != 6 {
		t.Fatalf("%d sub-clusters", len(tb.Clusters))
	}
	if tb.Emulator == nil {
		t.Fatal("no Longcut emulator")
	}
	sites := map[string]int{}
	for _, c := range tb.Clusters {
		sites[c.Site()]++
	}
	if sites[wantrace.Tromso] != 2 || sites[wantrace.Odense] != 2 || sites[wantrace.Trondheim] != 1 || sites[wantrace.Aalborg] != 1 {
		t.Fatalf("site distribution = %v", sites)
	}
}

func TestLayoutHierarchyAware(t *testing.T) {
	// 8-way over 10 hosts: nine non-root hosts split into eight groups
	// (one of size two), so the root has eight children and the first
	// group's head has one.
	kids := layout(10, 8)
	if len(kids[0]) != 8 {
		t.Fatalf("root children = %v", kids[0])
	}
	if len(kids[1]) != 1 || kids[1][0] != 2 {
		t.Fatalf("group-head children = %v", kids[1])
	}
	// 8-way over 49 hosts (the paper's Tin tree): a root plus eight
	// six-host sub-groups; collective wrappers end up on nine hosts.
	kids = layout(49, 8)
	if len(kids[0]) != 8 {
		t.Fatalf("49-host root children = %v", kids[0])
	}
	internal := 0
	covered := map[int]bool{0: true}
	for i, k := range kids {
		if len(k) > 0 {
			internal++
		}
		for _, c := range k {
			if covered[c] {
				t.Fatalf("host %d has two parents", c)
			}
			covered[c] = true
		}
		_ = i
	}
	if len(covered) != 49 {
		t.Fatalf("layout covers %d of 49 hosts", len(covered))
	}
	if internal != 9 {
		t.Fatalf("49-host internal hosts = %d, want 9 (root + 8 sub-roots)", internal)
	}
	// Flat: all under root.
	kids = layout(5, 0)
	if len(kids[0]) != 4 || len(kids[1]) != 0 {
		t.Fatalf("flat layout = %v", kids)
	}
	if kids := layout(1, 0); len(kids[0]) != 0 {
		t.Fatalf("singleton layout = %v", kids)
	}
}

// runTree drives every thread port for rounds iterations of a global sum
// where thread i contributes i, and checks every result.
func runTree(t *testing.T, tree *Tree, rounds int) {
	t.Helper()
	var want int64
	for i := range tree.Ports {
		want += int64(i)
	}
	var wg sync.WaitGroup
	for i, p := range tree.Ports {
		wg.Add(1)
		vclock.Go(func() {
			defer wg.Done()
			ctx := &paths.Ctx{Thread: p.Name}
			for r := 0; r < rounds; r++ {
				rep, err := p.Entry.Op(ctx, paths.Request{Kind: paths.OpWrite, Value: int64(i)})
				if err != nil {
					t.Errorf("port %s round %d: %v", p.Name, r, err)
					return
				}
				if rep.Value != want {
					t.Errorf("port %s round %d: sum %d, want %d", p.Name, r, rep.Value, want)
					return
				}
			}
		})
	}
	wg.Wait()
}

func TestBuildTreeSingleClusterFlat(t *testing.T) {
	virtual(t)
	tb, err := NewTestbed(SingleTin(4))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(tb, TreeSpec{Name: "T", Fanout: 0, ThreadsPerHost: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if len(tree.Ports) != 4 {
		t.Fatalf("ports = %d", len(tree.Ports))
	}
	// Leaf hosts with one thread and no children get no collective
	// wrapper: only the root carries one.
	if len(tree.Nodes) != 1 {
		t.Fatalf("nodes = %d, want 1", len(tree.Nodes))
	}
	// Flat: root joins 1 thread + 3 child hosts.
	root := tree.Nodes[0]
	if root.AR.Fanin() != 4 {
		t.Fatalf("root fanin = %d", root.AR.Fanin())
	}
	if len(root.Children) != 3 {
		t.Fatalf("root children = %v", root.Children)
	}
	if tree.ECCount() != 0 {
		t.Fatalf("uninstrumented tree has %d ECs", tree.ECCount())
	}
	runTree(t, tree, 10)
	if len(tree.Results) != 1 {
		t.Fatalf("results = %d", len(tree.Results))
	}
	if tree.Results[0].Stats().Written != 10 {
		t.Fatalf("root stored %d results", tree.Results[0].Stats().Written)
	}
}

func TestBuildTreeEightWayInstrumented(t *testing.T) {
	virtual(t)
	tb, err := NewTestbed(SingleTin(10))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(tb, TreeSpec{Name: "T", Fanout: 8, ThreadsPerHost: 1, Instrument: true, TraceBufCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	// Collective wrappers only on internal hosts (root + one group
	// head); every non-root host still links to its parent.
	if len(tree.Nodes) != 2 || len(tree.Links) != 9 {
		t.Fatalf("nodes=%d links=%d", len(tree.Nodes), len(tree.Links))
	}
	// ECs: per node 1 collective + fanin contributors; per link 2.
	wantECs := 0
	for _, n := range tree.Nodes {
		wantECs += 1 + n.AR.Fanin()
	}
	wantECs += 2 * len(tree.Links)
	if tree.ECCount() != wantECs {
		t.Fatalf("ECs = %d, want %d", tree.ECCount(), wantECs)
	}
	runTree(t, tree, 5)
	// Every node's collective EC recorded one tuple per round, and
	// every contributor EC likewise.
	for _, n := range tree.Nodes {
		if n.CollectiveEC.Buffer().Stats().Written != 5 {
			t.Fatalf("node %s collective EC recorded %d", n.Name, n.CollectiveEC.Buffer().Stats().Written)
		}
		for i, ec := range n.ContribECs {
			if ec.Buffer().Stats().Written != 5 {
				t.Fatalf("node %s contrib %d recorded %d", n.Name, i, ec.Buffer().Stats().Written)
			}
		}
	}
	// TCP latency from any link's EC pair is positive.
	lk := tree.Links[0]
	cli, _ := lk.ClientEC.Buffer().Latest(nil)
	srv, _ := lk.ServerEC.Buffer().Latest(nil)
	ct, err1 := collect.Decode(cli)
	st, err2 := collect.Decode(srv)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if (ct.End-ct.Start)-(st.End-st.Start) <= 0 {
		t.Fatal("two-way TCP latency not positive")
	}
}

func TestBuildTreeLANMulti(t *testing.T) {
	virtual(t)
	tb, err := NewTestbed(LANMulti(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(tb, TreeSpec{Name: "T", Fanout: 8, ThreadsPerHost: 1, Instrument: true, TraceBufCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	// inter node + the two cluster-root nodes (leaf hosts carry none).
	if len(tree.Nodes) != 3 {
		t.Fatalf("nodes = %d", len(tree.Nodes))
	}
	inter, ok := tree.NodeByName("T/inter")
	if !ok {
		t.Fatal("no inter node")
	}
	if _, ok := tree.NodeByName("nope"); ok {
		t.Fatal("ghost node found")
	}
	if inter.AR.Fanin() != 2 {
		t.Fatalf("inter fanin = %d", inter.AR.Fanin())
	}
	runTree(t, tree, 5)
	if inter.AR.Rounds() != 5 {
		t.Fatalf("inter rounds = %d", inter.AR.Rounds())
	}
}

func TestBuildTreeWANAllToAll(t *testing.T) {
	virtual(t)
	tb, err := NewTestbed(WANMulti(2, 2, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(tb, TreeSpec{Name: "W", Fanout: 8, ThreadsPerHost: 1, WANAllToAll: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if len(tree.Exchanges) != 6 {
		t.Fatalf("exchanges = %d", len(tree.Exchanges))
	}
	if len(tree.Results) != 6 {
		t.Fatalf("results = %d (one per cluster root)", len(tree.Results))
	}
	runTree(t, tree, 3)
	for i, r := range tree.Results {
		if r.Stats().Written != 3 {
			t.Fatalf("result %d has %d writes", i, r.Stats().Written)
		}
	}
}

func TestBuildTreeNotifierWired(t *testing.T) {
	virtual(t)
	tb, err := NewTestbed(SingleTin(2))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	sent := map[string]int{}
	released := map[string]int{}
	tree, err := BuildTree(tb, TreeSpec{
		Name: "T", ThreadsPerHost: 1,
		Notifier: func(h *vnet.Host) paths.CollectiveNotifier {
			return notifierFunc{
				onSent:     func() { mu.Lock(); sent[h.Name()]++; mu.Unlock() },
				onReleased: func() { mu.Lock(); released[h.Name()]++; mu.Unlock() },
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	runTree(t, tree, 4)
	mu.Lock()
	defer mu.Unlock()
	// Only tin-0 carries a collective wrapper (tin-1 is a single-thread
	// leaf host), so only its controller sees windows.
	if sent["tin-0"] != 4 || released["tin-0"] != 4 {
		t.Fatalf("tin-0: sent=%d released=%d", sent["tin-0"], released["tin-0"])
	}
	if sent["tin-1"] != 0 {
		t.Fatalf("tin-1 saw %d windows, want 0", sent["tin-1"])
	}
}

type notifierFunc struct {
	onSent     func()
	onReleased func()
}

func (n notifierFunc) AllSent(h *vnet.Host)     { n.onSent() }
func (n notifierFunc) AllReleased(h *vnet.Host) { n.onReleased() }

func TestBuildTreeNeedsName(t *testing.T) {
	tb, _ := NewTestbed(SingleTin(2))
	if _, err := BuildTree(tb, TreeSpec{}); err == nil {
		t.Fatal("unnamed tree accepted")
	}
}

func TestBuildTwoIdenticalTrees(t *testing.T) {
	virtual(t)
	tb, err := NewTestbed(SingleTin(3))
	if err != nil {
		t.Fatal(err)
	}
	// gsum alternates between two identical instrumented trees; their
	// trace buffers must not collide.
	t1, err := BuildTree(tb, TreeSpec{Name: "T1", ThreadsPerHost: 1, Instrument: true, TraceBufCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	t2, err := BuildTree(tb, TreeSpec{Name: "T2", ThreadsPerHost: 1, Instrument: true, TraceBufCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	runTree(t, t1, 3)
	runTree(t, t2, 3)
}

func TestThreadsPerHostDefaultsToCPUs(t *testing.T) {
	virtual(t)
	tb, err := NewTestbed(TestbedSpec{Clusters: []ClusterSpec{
		{Name: "copper", Class: Copper, Hosts: 2, Site: wantrace.Tromso},
	}})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(tb, TreeSpec{Name: "T"})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	// Copper is dual-CPU: 2 threads per host.
	if len(tree.Ports) != 4 {
		t.Fatalf("ports = %d, want 4", len(tree.Ports))
	}
	runTree(t, tree, 3)
}

func TestTreePortNamesUnique(t *testing.T) {
	virtual(t)
	tb, _ := NewTestbed(SingleTin(4))
	tree, err := BuildTree(tb, TreeSpec{Name: "T", ThreadsPerHost: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	seen := map[string]bool{}
	for _, p := range tree.Ports {
		if seen[p.Name] {
			t.Fatalf("duplicate port name %q", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestLANMultiFourSpec(t *testing.T) {
	spec := LANMultiFour(4, 2, 2)
	if len(spec.Clusters) != 3 {
		t.Fatalf("clusters = %d", len(spec.Clusters))
	}
	names := fmt.Sprintf("%s/%s/%s", spec.Clusters[0].Name, spec.Clusters[1].Name, spec.Clusters[2].Name)
	if names != "tin/copper/lead" {
		t.Fatalf("names = %s", names)
	}
}
