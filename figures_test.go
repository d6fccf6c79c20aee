package eventspace

// Structural tests for the paper's figures: the instrumented allreduce
// spanning tree (figure 1), the collector -> event space -> event scope ->
// view pipeline (figure 2), the two load-balance monitor organizations
// (figure 3), and statsm's thread/gather-tree structure (figure 4).

import (
	"strings"
	"testing"
	"time"

	"eventspace/internal/analysis"
	"eventspace/internal/cluster"
	"eventspace/internal/collect"
	"eventspace/internal/core"
	"eventspace/internal/cosched"
	"eventspace/internal/monitor"
)

// TestFigure1Structure verifies the figure-1 anatomy: per-host allreduce
// wrappers joined into a tree, event collectors on every contributor path
// and after every allreduce wrapper, and EC pairs around each inter-host
// connection whose timestamps yield the two-way TCP latency.
func TestFigure1Structure(t *testing.T) {
	err := core.RunVirtual(func() error {
		sys, err := core.New(cluster.SingleTin(9), cosched.None)
		if err != nil {
			return err
		}
		defer sys.Close()
		tree, err := sys.BuildTree(cluster.TreeSpec{
			Name: "fig1", Fanout: 8, ThreadsPerHost: 1, Instrument: true, TraceBufCap: 64,
		})
		if err != nil {
			return err
		}
		// 9 hosts, 8-way: one root allreduce joining the local thread
		// plus 8 remote feeds.
		root := tree.Nodes[0]
		if root.AR.Fanin() != 9 {
			t.Errorf("root fan-in = %d", root.AR.Fanin())
		}
		if len(tree.Links) != 8 {
			t.Errorf("links = %d", len(tree.Links))
		}
		// Roles: one collective EC per wrapper, one contributor EC per
		// port, one client+server EC per link.
		if root.CollectiveEC.Meta().Role != collect.RoleCollective {
			t.Error("collective EC role wrong")
		}
		for i, ec := range root.ContribECs {
			m := ec.Meta()
			if m.Role != collect.RoleContributor || m.Contributor != i {
				t.Errorf("contributor EC %d meta = %+v", i, m)
			}
		}
		for _, lk := range tree.Links {
			if lk.ClientEC.Meta().Role != collect.RoleStubClient || lk.ServerEC.Meta().Role != collect.RoleStubServer {
				t.Errorf("link %s roles wrong", lk.Name)
			}
		}
		// Drive one round; every EC must have recorded one tuple, and
		// the TCP latency formula must be positive on every link.
		if _, err := sys.RunWorkload(core.Workload{Trees: []*cluster.Tree{tree}, Iterations: 1}); err != nil {
			return err
		}
		for _, lk := range tree.Links {
			cli, err1 := lk.ClientEC.Buffer().Latest(nil)
			srv, err2 := lk.ServerEC.Buffer().Latest(nil)
			if err1 != nil || err2 != nil {
				t.Fatalf("link %s missing tuples: %v %v", lk.Name, err1, err2)
			}
			ct, _ := collect.Decode(cli)
			st, _ := collect.Decode(srv)
			if lat := analysis.TCPLatency(ct, st); lat <= 0 {
				t.Errorf("link %s TCP latency %v", lk.Name, lat)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFigure2Architecture verifies the figure-2 pipeline: event collectors
// record trace tuples into the event space (bounded PastSet buffers); an
// event scope extracts and combines them into a view for a consumer.
func TestFigure2Architecture(t *testing.T) {
	err := core.RunVirtual(func() error {
		sys, err := core.New(cluster.SingleTin(4), cosched.None)
		if err != nil {
			return err
		}
		defer sys.Close()
		tree, err := sys.BuildTree(cluster.TreeSpec{
			Name: "fig2", Fanout: 8, ThreadsPerHost: 1, Instrument: true, TraceBufCap: 64,
		})
		if err != nil {
			return err
		}
		const rounds = 16
		if _, err := sys.RunWorkload(core.Workload{Trees: []*cluster.Tree{tree}, Iterations: rounds}); err != nil {
			return err
		}
		// The event space: every collector's bounded buffer holds the
		// recorded 28-byte tuples.
		for _, ec := range tree.Collectors.All() {
			st := ec.Buffer().Stats()
			if st.Written != rounds {
				t.Errorf("collector %s recorded %d of %d", ec.Name(), st.Written, rounds)
			}
			if st.Capacity != 64 {
				t.Errorf("collector %s capacity %d", ec.Name(), st.Capacity)
			}
		}
		// Buffers are addressable through the per-host PastSet
		// registries (storage separated from collection).
		root := tree.Nodes[0]
		found := false
		for _, name := range root.Host.Registry.Names() {
			if strings.HasPrefix(name, "trace/") {
				found = true
				break
			}
		}
		if !found {
			t.Error("no trace buffers registered in the host's PastSet")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFigure3Monitors verifies the two load-balance organizations deliver
// the same verdict: the straggler dominates the weighted tree whether the
// reduce happens inside a single event scope or in per-host analysis
// threads gathering only intermediate results.
func TestFigure3Monitors(t *testing.T) {
	err := core.RunVirtual(func() error {
		sys, err := core.New(cluster.SingleTin(6), cosched.None)
		if err != nil {
			return err
		}
		defer sys.Close()
		tree, err := sys.BuildTree(cluster.TreeSpec{
			Name: "fig3", Fanout: 8, ThreadsPerHost: 1, Instrument: true, TraceBufCap: 256,
		})
		if err != nil {
			return err
		}
		cfg := monitor.DefaultConfig()
		cfg.PullInterval = 300 * time.Microsecond
		cfg.AnalysisInterval = 300 * time.Microsecond
		single, err := sys.AttachLoadBalance(tree, monitor.SingleScope, cfg)
		if err != nil {
			return err
		}
		dist, err := sys.AttachLoadBalance(tree, monitor.Distributed, cfg)
		if err != nil {
			return err
		}
		const rounds = 80
		_, err = sys.RunWorkload(core.Workload{
			Trees: []*cluster.Tree{tree}, Iterations: rounds,
			Delay: func(thread, iter int) time.Duration {
				if thread == 0 {
					return 3 * time.Millisecond
				}
				return 0
			},
		})
		if err != nil {
			return err
		}
		root := tree.Nodes[0]
		for mode, lb := range map[monitor.LoadBalanceMode]*monitor.LoadBalance{monitor.SingleScope: single, monitor.Distributed: dist} {
			if got := lb.Weighted().Counts(root.Name)[0]; got < rounds/2 {
				t.Errorf("%v monitor: straggler count %d of %d", mode, got, rounds)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFigure4Statsm verifies statsm's structure: analysis threads only on
// hosts with collective wrappers, per-wrapper statistics for every latency
// kind, per-thread wait-time records, and two gather trees feeding the
// front-end analysis tree.
func TestFigure4Statsm(t *testing.T) {
	err := core.RunVirtual(func() error {
		sys, err := core.New(cluster.SingleTin(10), cosched.AfterUnblock)
		if err != nil {
			return err
		}
		defer sys.Close()
		tree, err := sys.BuildTree(cluster.TreeSpec{
			Name: "fig4", Fanout: 8, ThreadsPerHost: 1, Instrument: true, TraceBufCap: 256,
		})
		if err != nil {
			return err
		}
		cfg := monitor.DefaultConfig()
		cfg.PullInterval = 300 * time.Microsecond
		sm, err := sys.AttachStatsm(tree, cfg)
		if err != nil {
			return err
		}
		if _, err := sys.RunWorkload(core.Workload{Trees: []*cluster.Tree{tree}, Iterations: 120}); err != nil {
			return err
		}
		if sm.RoundsAnalyzed() == 0 {
			t.Fatal("no rounds analyzed")
		}
		// Wrapper statistics for the root, all five kinds.
		rootID := tree.Nodes[0].CollectiveEC.ID()
		for _, kind := range []int{analysis.KindDown, analysis.KindUp, analysis.KindTotal,
			analysis.KindArrivalWait, analysis.KindDepartureWait} {
			if _, ok := sm.Tree().Get(rootID, kind); !ok {
				t.Errorf("missing %s record for root wrapper", analysis.KindName(kind))
			}
		}
		// Per-thread means behind the second gather tree.
		if _, ok := sm.Tree().Get(tree.Nodes[0].ContribECs[0].ID(), analysis.KindArrivalWait); !ok {
			t.Error("missing per-thread record")
		}
		// TCP statistics for the links.
		if sm.TCPSamples() == 0 {
			t.Error("no TCP samples")
		}
		if sm.WrapperGatherRate() <= 0 || sm.ThreadGatherRate() <= 0 {
			t.Error("gather trees delivered nothing")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
