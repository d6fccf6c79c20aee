package viz

import (
	"fmt"
	"io"
	"sort"
	"time"

	"eventspace/internal/escope"
	"eventspace/internal/reconfig"
)

// RepairPlans renders a reconfig manager's executed repair plans: per
// plan the trigger (which uplink died, at what modelled time), each
// step's action and outcome, and the repair latency.
func RepairPlans(w io.Writer, plans []reconfig.RepairPlan) error {
	fmt.Fprintf(w, "repair plans: %d\n", len(plans))
	for i, p := range plans {
		fmt.Fprintf(w, "  plan %d @%v: uplink %s (cluster %s) %s -> %s\n",
			i, time.Duration(p.Trigger.At), p.Trigger.Target, p.Cluster,
			p.Trigger.From, p.Trigger.To)
		if p.Aborted {
			fmt.Fprintf(w, "    aborted: %s\n", p.Reason)
			continue
		}
		for _, st := range p.Steps {
			switch st.Kind {
			case reconfig.StepReparent:
				fmt.Fprintf(w, "    reparent %s: %s -> %s", st.Host, st.Cluster, st.Target)
			case reconfig.StepPromote:
				fmt.Fprintf(w, "    promote %s as gateway of %s", st.Host, st.Cluster)
			default:
				fmt.Fprintf(w, "    %v %s", st.Kind, st.Host)
			}
			if st.Err != "" {
				fmt.Fprintf(w, " FAILED: %s", st.Err)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "    latency: %v\n", time.Duration(p.Finished-p.Started))
	}
	return nil
}

// CoverageDetail renders a scope coverage snapshot with the repair-aware
// fields: reporting/expected, how many reporting hosts recovered from an
// outage or repair, who is missing, and per-host last-heard ages (the
// age of the last successful gather over each host's path, relative to
// the newest one).
func CoverageDetail(w io.Writer, cov escope.Coverage) error {
	fmt.Fprintf(w, "coverage: %d/%d reporting", cov.Reporting, cov.Expected)
	if cov.Recovered > 0 {
		fmt.Fprintf(w, " (%d recovered)", cov.Recovered)
	}
	if len(cov.Missing) > 0 {
		fmt.Fprintf(w, ", missing: %v", cov.Missing)
	}
	if cov.Staleness > 0 {
		fmt.Fprintf(w, ", staleness %v", cov.Staleness)
	}
	fmt.Fprintln(w)
	if len(cov.LastHeard) == 0 {
		return nil
	}
	hosts := make([]string, 0, len(cov.LastHeard))
	newest := cov.LastHeard[""]
	for h, st := range cov.LastHeard {
		hosts = append(hosts, h)
		if st > newest {
			newest = st
		}
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		fmt.Fprintf(w, "  %-14s last heard %v ago\n", h, time.Duration(newest-cov.LastHeard[h]))
	}
	return nil
}
