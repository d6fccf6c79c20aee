// Package viz renders text visualizations of the monitoring results: the
// spanning tree with its event collectors (figure 1), the load-balance
// monitor's weighted tree (the per-contributor last-arrival counts used to
// spot stragglers), and statsm's per-wrapper statistics tables. The paper
// generates graphical views from the same front-end structures; a text
// rendering keeps this reproduction dependency-free while exercising the
// identical data.
package viz

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"eventspace/internal/analysis"
	"eventspace/internal/cluster"
	"eventspace/internal/collect"
	"eventspace/internal/monitor"
)

// Tree renders the spanning tree's node hierarchy with per-node fan-in and
// instrumentation summary.
func Tree(w io.Writer, t *cluster.Tree) error {
	fmt.Fprintf(w, "spanning tree %s: %d collective wrappers, %d links, %d thread ports, %d event collectors\n",
		t.Name, len(t.Nodes), len(t.Links), len(t.Ports), t.ECCount())
	if len(t.Nodes) == 0 {
		return nil
	}
	byName := make(map[string]*cluster.Node, len(t.Nodes))
	children := make(map[string][]string)
	isChild := make(map[string]bool)
	for _, n := range t.Nodes {
		byName[n.Name] = n
		children[n.Name] = n.Children
		for _, c := range n.Children {
			isChild[c] = true
		}
	}
	var render func(name, indent string) error
	render = func(name, indent string) error {
		n, ok := byName[name]
		if !ok {
			_, err := fmt.Fprintf(w, "%s- %s (leaf host feed)\n", indent, name)
			return err
		}
		ecs := ""
		if n.CollectiveEC != nil {
			ecs = fmt.Sprintf(" [EC%d + %d contributor ECs]", n.CollectiveEC.ID(), len(n.ContribECs))
		}
		if _, err := fmt.Fprintf(w, "%s- %s on %s (fan-in %d)%s\n", indent, n.Name, n.Host.Name(), n.AR.Fanin(), ecs); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := render(c, indent+"  "); err != nil {
				return err
			}
		}
		return nil
	}
	for _, n := range t.Nodes {
		if !isChild[n.Name] {
			if err := render(n.Name, "  "); err != nil {
				return err
			}
		}
	}
	if len(t.Exchanges) > 0 {
		fmt.Fprintf(w, "  inter-cluster all-to-all exchange: %d participants\n", t.Exchanges[0].Participants())
	}
	return nil
}

// bar renders a proportional bar of width cells.
func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}

// WeightedTree renders the load-balance monitor's last-arrival counts: one
// block per collective wrapper, one bar per contributor. The dominant bar
// is the straggler the paper's analysis hunts for.
func WeightedTree(w io.Writer, wt *monitor.WeightedTree) error {
	nodes := wt.Nodes()
	sort.Strings(nodes)
	if len(nodes) == 0 {
		_, err := fmt.Fprintln(w, "weighted tree: no observations")
		return err
	}
	for _, node := range nodes {
		counts := wt.Counts(node)
		var total uint64
		for _, v := range counts {
			total += v
		}
		if _, err := fmt.Fprintf(w, "%s (%d rounds observed)\n", node, total); err != nil {
			return err
		}
		contribs := make([]int, 0, len(counts))
		for c := range counts {
			contribs = append(contribs, c)
		}
		sort.Ints(contribs)
		for _, c := range contribs {
			frac := 0.0
			if total > 0 {
				frac = float64(counts[c]) / float64(total)
			}
			if _, err := fmt.Fprintf(w, "  contributor %2d %s %5.1f%% (%d)\n",
				c, bar(frac, 30), frac*100, counts[c]); err != nil {
				return err
			}
		}
	}
	return nil
}

// statKinds is the display order for wrapper statistics.
var statKinds = []int{
	analysis.KindDown, analysis.KindUp, analysis.KindTotal,
	analysis.KindArrivalWait, analysis.KindDepartureWait, analysis.KindTCP,
}

// AnalysisTree renders statsm's front-end analysis tree as a table of
// microsecond statistics per wrapper and latency kind.
func AnalysisTree(w io.Writer, at *monitor.AnalysisTree, tree *cluster.Tree) error {
	ids := at.IDs()
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	if len(ids) == 0 {
		_, err := fmt.Fprintln(w, "analysis tree: no statistics gathered")
		return err
	}
	name := func(id uint32) string {
		if tree != nil {
			if ec, ok := tree.Collectors.ByID(id); ok {
				return ec.Name()
			}
		}
		return fmt.Sprintf("wrapper#%d", id)
	}
	fmt.Fprintf(w, "%-34s %-14s %8s %10s %10s %10s %10s %10s\n",
		"wrapper", "metric", "n", "mean", "min", "max", "std", "median")
	for _, id := range ids {
		for _, kind := range statKinds {
			rec, ok := at.Get(id, kind)
			if !ok {
				continue
			}
			if _, err := fmt.Fprintf(w, "%-34s %-14s %8d %9.1fu %9.1fu %9.1fu %9.1fu %9.1fu\n",
				name(id), analysis.KindName(kind), rec.Count,
				rec.Mean, rec.Min, rec.Max, rec.Std, rec.Median); err != nil {
				return err
			}
		}
	}
	return nil
}

// GatherReport renders an event scope's delivery accounting.
func GatherReport(w io.Writer, label string, rate float64) error {
	status := "all tuples gathered"
	if rate < 0.99 {
		status = "tuples discarded"
	}
	_, err := fmt.Fprintf(w, "%s: gather rate %5.1f%% (%s)\n", label, rate*100, status)
	return err
}

// Alerts renders a continuous-query alert stream: one line per fired
// alert, stamped in modelled time. queries maps a statement's hash
// (query.Stmt.Hash) to its canonical esql source for labelling;
// unmapped hashes render as hex. Live (Engine.Alerts) and
// archive-replayed (archive.ReplayAlerts, query.Replay) streams render
// byte-identically when the run was recorded faithfully.
func Alerts(w io.Writer, label string, alerts []collect.AlertTuple, queries map[uint64]string) error {
	if _, err := fmt.Fprintf(w, "== alerts: %s ==\n", label); err != nil {
		return err
	}
	if len(alerts) == 0 {
		_, err := fmt.Fprintln(w, "  (no alerts fired)")
		return err
	}
	for _, a := range alerts {
		q, ok := queries[a.QueryHash]
		if !ok {
			q = fmt.Sprintf("query %016x", a.QueryHash)
		}
		group := "all"
		if a.Group != 0 {
			group = fmt.Sprintf("ec %d", a.Group)
		}
		if _, err := fmt.Fprintf(w, "  #%-3d %12v  %-6s  %s\n",
			a.Seq, time.Duration(a.At), group, q); err != nil {
			return err
		}
	}
	return nil
}

// Topology renders the testbed: clusters, hosts, gateways and the WAN
// emulator placement.
func Topology(w io.Writer, tb *cluster.Testbed) error {
	for _, c := range tb.Clusters {
		if _, err := fmt.Fprintf(w, "cluster %-8s site=%-10s hosts=%-3d gateway=%s\n",
			c.Name(), c.Site(), len(c.Hosts()), c.Gateway().Name()); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "front-end %s (%d CPUs)\n", tb.FrontEnd.Name(), tb.FrontEnd.CPUs())
	if tb.Emulator != nil {
		fmt.Fprintf(w, "WAN links emulated by Longcut (max base RTT %v)\n", 36*time.Millisecond)
	}
	return nil
}
