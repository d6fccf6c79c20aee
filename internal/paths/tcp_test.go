package paths

import (
	"fmt"
	"sync"
	"testing"

	"eventspace/internal/vnet"
)

// TestRemoteOverRealTCP runs a PATHS service over the real TCP transport:
// the same wire format the modelled connections use, on an actual network
// stack with Nagle disabled — the substrate the paper's stubs and
// communication threads run on. Both TCP tests stay on the wall clock,
// where modelled delays are off: their subject is real sockets, whose
// I/O the virtual clock cannot see.
func TestRemoteOverRealTCP(t *testing.T) {
	n := vnet.NewNetwork(vnet.FastEthernet, vnet.DefaultCostModel())
	serverHost, err := n.AddStandaloneHost("srv", 2)
	if err != nil {
		t.Fatal(err)
	}
	clientHost, err := n.AddStandaloneHost("cli", 2)
	if err != nil {
		t.Fatal(err)
	}

	// The service terminates paths in a PastSet element on the server.
	elem := testElem(t, "remote-values", 64, 8)
	svc := NewService()
	target := svc.Register(NewValueStore("store", serverHost, elem))

	srv, err := vnet.ListenTCP("127.0.0.1:0", svc.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	caller, err := vnet.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()
	stub := NewRemote("tcp-stub", clientHost, caller, target)

	for i := int64(0); i < 20; i++ {
		rep, err := stub.Op(&Ctx{Thread: "t0"}, Request{Kind: OpWrite, Value: i})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Value != i {
			t.Fatalf("echo = %d, want %d", rep.Value, i)
		}
	}
	if st := elem.Stats(); st.Written != 20 {
		t.Fatalf("element has %d writes", st.Written)
	}
	// Reads travel the same path.
	rep, err := stub.Op(&Ctx{Thread: "t0"}, Request{Kind: OpRead})
	if err != nil || rep.Value != 19 {
		t.Fatalf("remote read = %+v, %v", rep, err)
	}
}

// TestAllreduceOverRealTCP joins two contributor processes' worth of
// traffic through a real TCP connection into one allreduce wrapper.
func TestAllreduceOverRealTCP(t *testing.T) {
	n := vnet.NewNetwork(vnet.FastEthernet, vnet.DefaultCostModel())
	rootHost, _ := n.AddStandaloneHost("root", 2)
	leafHost, _ := n.AddStandaloneHost("leaf", 2)

	elem := testElem(t, "result", 64, 8)
	store := NewValueStore("store", rootHost, elem)
	ar, err := NewAllreduce("ar", rootHost, 2, Sum, store)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService()
	target := svc.Register(ar.Port(1))
	srv, err := vnet.ListenTCP("127.0.0.1:0", svc.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	caller, err := vnet.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()
	stub := NewRemote("stub", leafHost, caller, target)

	const rounds = 10
	var wg sync.WaitGroup
	for i, entry := range []Wrapper{ar.Port(0), stub} {
		wg.Add(1)
		go func(i int, entry Wrapper) {
			defer wg.Done()
			ctx := &Ctx{Thread: fmt.Sprintf("t%d", i)}
			for r := 0; r < rounds; r++ {
				rep, err := entry.Op(ctx, Request{Kind: OpWrite, Value: int64(10 * (i + 1))})
				if err != nil {
					t.Errorf("round %d: %v", r, err)
					return
				}
				if rep.Value != 30 {
					t.Errorf("round %d: sum = %d", r, rep.Value)
					return
				}
			}
		}(i, entry)
	}
	wg.Wait()
	if st := elem.Stats(); st.Written != rounds {
		t.Fatalf("stored %d results", st.Written)
	}
}
