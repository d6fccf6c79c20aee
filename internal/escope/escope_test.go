package escope

//lint:file-allow wallclock tests poll real goroutine progress against wall-clock deadlines

import (
	"sync"
	"testing"
	"time"

	"eventspace/internal/hrtime"
	"eventspace/internal/pastset"
	"eventspace/internal/paths"
	"eventspace/internal/vnet"
)

// rig is a two-cluster testbed with a front-end.
type rig struct {
	net *vnet.Network
	c1  *vnet.Cluster
	c2  *vnet.Cluster
	fe  *vnet.Host
}

func newRig(t *testing.T) *rig {
	t.Helper()
	old := hrtime.Scale()
	hrtime.SetScale(0.005)
	t.Cleanup(func() { hrtime.SetScale(old) })
	n := vnet.NewNetwork(vnet.FastEthernet, vnet.DefaultCostModel())
	c1, err := n.AddCluster("a", "s1", 3, 2, vnet.GigabitEthernet)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := n.AddCluster("b", "s1", 2, 2, vnet.GigabitEthernet)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := n.AddStandaloneHost("fe", 2)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{net: n, c1: c1, c2: c2, fe: fe}
}

// testElem creates an element of recSize-byte records.
func testElem(t testing.TB, name string, capacity, recSize int) *pastset.Element {
	t.Helper()
	e, err := pastset.NewElementFixed(name, capacity, recSize)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func fill(t *testing.T, e *pastset.Element, recs ...[]byte) {
	t.Helper()
	for _, r := range recs {
		if _, err := e.WriteCopy(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	r := newRig(t)
	if _, err := Build(r.net, Spec{Name: "s", Sources: []Source{{}}}); err == nil {
		t.Fatal("nil front-end accepted")
	}
	if _, err := Build(r.net, Spec{Name: "s", FrontEnd: r.fe}); err == nil {
		t.Fatal("no sources accepted")
	}
	if _, err := Build(r.net, Spec{Name: "s", FrontEnd: r.fe, Sources: []Source{{}}}); err == nil {
		t.Fatal("incomplete source accepted")
	}
	e := testElem(t, "x", 4, 1)
	if _, err := Build(r.net, Spec{Name: "s", FrontEnd: r.fe, Sources: []Source{
		{Host: r.c1.Hosts()[0], Elem: e, RecSize: 0},
	}}); err == nil {
		t.Fatal("bad record size accepted")
	}
}

func TestSingleClusterScopePullsAllTuples(t *testing.T) {
	r := newRig(t)
	h0, h1 := r.c1.Hosts()[0], r.c1.Hosts()[1]
	e0 := testElem(t, "t0", 16, 2)
	e1 := testElem(t, "t1", 16, 2)
	fill(t, e0, []byte{1, 1}, []byte{1, 2})
	fill(t, e1, []byte{2, 1})
	scope, err := Build(r.net, Spec{
		Name:     "lb",
		FrontEnd: r.fe,
		Sources: []Source{
			{Host: h0, Elem: e0, RecSize: 2},
			{Host: h1, Elem: e1, RecSize: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer scope.Close()
	rep, err := scope.Pull(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ret != 3 || len(rep.Data) != 6 {
		t.Fatalf("pull: ret=%d len=%d", rep.Ret, len(rep.Data))
	}
	// Child order: host order of sources.
	want := []byte{1, 1, 1, 2, 2, 1}
	for i := range want {
		if rep.Data[i] != want[i] {
			t.Fatalf("data = % x, want % x", rep.Data, want)
		}
	}
	if scope.GatherRate() != 1 {
		t.Fatalf("GatherRate = %v", scope.GatherRate())
	}
	if scope.Pulls() != 1 {
		t.Fatalf("Pulls = %d", scope.Pulls())
	}
	if scope.Name() != "lb" || scope.root == nil || len(scope.readers) != 2 {
		t.Fatal("accessors wrong")
	}
}

func TestMultiClusterScopeGathersThroughGateways(t *testing.T) {
	r := newRig(t)
	srcs := []Source{
		{Host: r.c1.Hosts()[0], Elem: testElem(t, "a0", 8, 1), RecSize: 1},
		{Host: r.c1.Hosts()[2], Elem: testElem(t, "a2", 8, 1), RecSize: 1},
		{Host: r.c2.Hosts()[1], Elem: testElem(t, "b1", 8, 1), RecSize: 1},
	}
	fill(t, srcs[0].Elem, []byte{10})
	fill(t, srcs[1].Elem, []byte{11})
	fill(t, srcs[2].Elem, []byte{20})
	scope, err := Build(r.net, Spec{Name: "mc", FrontEnd: r.fe, Sources: srcs, GatewayHelpers: 2, RootHelpers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer scope.Close()
	rep, err := scope.Pull(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ret != 3 {
		t.Fatalf("ret = %d", rep.Ret)
	}
	got := map[byte]bool{}
	for _, b := range rep.Data {
		got[b] = true
	}
	if !got[10] || !got[11] || !got[20] {
		t.Fatalf("data = % x", rep.Data)
	}
}

func TestScopeWithSourceOnGatewayAndFrontEnd(t *testing.T) {
	r := newRig(t)
	gwElem := testElem(t, "gw", 8, 1)
	feElem := testElem(t, "fe", 8, 1)
	fill(t, gwElem, []byte{7})
	fill(t, feElem, []byte{9})
	scope, err := Build(r.net, Spec{
		Name:     "edge",
		FrontEnd: r.fe,
		Sources: []Source{
			{Host: r.c1.Gateway(), Elem: gwElem, RecSize: 1},
			{Host: r.fe, Elem: feElem, RecSize: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer scope.Close()
	rep, err := scope.Pull(nil)
	if err != nil || rep.Ret != 2 {
		t.Fatalf("pull: %+v %v", rep, err)
	}
}

func TestGatherRateReflectsOverwrites(t *testing.T) {
	r := newRig(t)
	h := r.c1.Hosts()[0]
	e := testElem(t, "t", 2, 1) // tiny: will overwrite
	scope, err := Build(r.net, Spec{
		Name:     "slow",
		FrontEnd: r.fe,
		Sources:  []Source{{Host: h, Elem: e, RecSize: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer scope.Close()
	for i := 0; i < 10; i++ {
		e.WriteCopy([]byte{byte(i)})
	}
	if _, err := scope.Pull(nil); err != nil {
		t.Fatal(err)
	}
	// 8 of 10 overwritten before the cursor saw them.
	if got := scope.GatherRate(); got != 0.2 {
		t.Fatalf("GatherRate = %v, want 0.2", got)
	}
}

func TestPullerDrainsContinuously(t *testing.T) {
	r := newRig(t)
	h := r.c1.Hosts()[0]
	e := testElem(t, "t", 1024, 1)
	scope, err := Build(r.net, Spec{
		Name:     "drain",
		FrontEnd: r.fe,
		Sources:  []Source{{Host: h, Elem: e, RecSize: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer scope.Close()
	var mu sync.Mutex
	var got []byte
	p := scope.StartPuller(0, func(rep paths.Reply) error {
		mu.Lock()
		got = append(got, rep.Data...)
		mu.Unlock()
		return nil
	})
	for i := 0; i < 50; i++ {
		e.WriteCopy([]byte{byte(i)})
		time.Sleep(time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("puller drained %d of 50 tuples", n)
		}
		time.Sleep(time.Millisecond)
	}
	p.Stop()
	p.Stop() // idempotent
	if p.Pulls() == 0 {
		t.Fatal("no pulls counted")
	}
	for i := 0; i < 50; i++ {
		if got[i] != byte(i) {
			t.Fatalf("tuple %d = %d", i, got[i])
		}
	}
}

func TestPullerCountsErrors(t *testing.T) {
	r := newRig(t)
	h := r.c1.Hosts()[0]
	e := testElem(t, "t", 8, 1)
	scope, err := Build(r.net, Spec{
		Name:     "err",
		FrontEnd: r.fe,
		Sources:  []Source{{Host: h, Elem: e, RecSize: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Closing the scope's connections makes pulls fail.
	scope.Close()
	p := scope.StartPuller(time.Millisecond, nil)
	deadline := time.Now().Add(5 * time.Second)
	for p.errcnt.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no errors counted after close")
		}
		time.Sleep(time.Millisecond)
	}
	p.Stop()
}

func TestEmptyScopeRateIsOne(t *testing.T) {
	r := newRig(t)
	h := r.c1.Hosts()[0]
	e := testElem(t, "t", 8, 1)
	scope, err := Build(r.net, Spec{
		Name:     "empty",
		FrontEnd: r.fe,
		Sources:  []Source{{Host: h, Elem: e, RecSize: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer scope.Close()
	if scope.GatherRate() != 1 {
		t.Fatalf("GatherRate = %v", scope.GatherRate())
	}
}
