package viz

import (
	"fmt"
	"io"
	"time"

	"eventspace/internal/metrics"
)

// maxSelfMetricsSites caps the per-site detail rows printed per kind, so
// a large scope does not drown the report; the per-kind totals always
// cover every site.
const maxSelfMetricsSites = 8

func fmtNS(ns float64) string {
	return fmtDur(time.Duration(ns))
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// SelfMetrics renders the self-metrics snapshot: the cost of monitoring
// the monitor. One aggregate row per wrapper kind (the paper-style
// per-operation cost table), a line for each kind whose latency comes
// from a sample of its ops, capped per-site detail, and the event
// counters (retries, redials, health transitions, puller activity).
func SelfMetrics(w io.Writer, s metrics.Snapshot) error {
	totals := s.Totals()
	if len(totals) == 0 && len(s.Counters) == 0 {
		_, err := fmt.Fprintln(w, "self-metrics: no instrumented sites")
		return err
	}
	fmt.Fprintln(w, "self-metrics (cost of monitoring the monitor)")
	fmt.Fprintf(w, "  %-11s %5s %10s %6s %12s %9s %9s %9s %9s\n",
		"kind", "sites", "ops", "errs", "bytes", "mean", "p50", "p99", "max")
	for _, t := range totals {
		fmt.Fprintf(w, "  %-11s %5d %10d %6d %12d %9s %9s %9s %9s\n",
			t.Name, s.Sites(t.Kind), t.Ops, t.Errs, t.Bytes,
			fmtNS(t.Lat.MeanNS()),
			fmtDur(time.Duration(t.Lat.Quantile(0.5))),
			fmtDur(time.Duration(t.Lat.Quantile(0.99))),
			fmtDur(time.Duration(t.Lat.MaxNS)))
	}
	for _, t := range totals {
		if t.Lat.Count < t.Ops {
			fmt.Fprintf(w, "  %s latency from %d of %d ops\n", t.Name, t.Lat.Count, t.Ops)
		}
	}
	for _, t := range totals {
		sites := s.ByKind(t.Kind)
		if len(sites) < 2 {
			continue
		}
		fmt.Fprintf(w, "  %s sites:\n", t.Kind)
		shown := sites
		if len(shown) > maxSelfMetricsSites {
			shown = shown[:maxSelfMetricsSites]
		}
		for _, o := range shown {
			fmt.Fprintf(w, "    %-44s %10d ops %6d errs %9s mean\n",
				o.Name, o.Ops, o.Errs, fmtNS(o.Lat.MeanNS()))
		}
		if len(sites) > len(shown) {
			fmt.Fprintf(w, "    ... and %d more\n", len(sites)-len(shown))
		}
	}
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "  counters:")
		for _, c := range s.Counters {
			if c.Value == 0 {
				continue
			}
			fmt.Fprintf(w, "    %-44s %10d\n", c.Name, c.Value)
		}
	}
	return nil
}
