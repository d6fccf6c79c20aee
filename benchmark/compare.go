package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runSet is the records of one -out file, by workload.
type runSet map[string][]report

func loadRuns(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(runSet)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			set[r.Workload] = append(set[r.Workload], r)
		}
	}
	return set, sc.Err()
}

// summary is one end-to-end metric over the runs of one set: median and
// quartiles of the runs' reported values — or, of a single run, the median
// and quartiles it measured within itself, unscaled.
type summary struct{ q1, med, q3 float64 }

func summarize(runs []report, m metricSpec) (summary, bool) {
	var vals sample
	for _, r := range runs {
		if _, ok := r.Metrics[m.Name]; ok {
			vals = append(vals, r.reported(m, true))
		}
	}
	switch len(vals) {
	case 0:
		return summary{}, false
	case 1:
		got := runs[0].Metrics[m.Name]
		return summary{got.Q1, got.Median, got.Q3}, true
	}
	q1, med, q3 := vals.quartiles()
	return summary{q1, med, q3}, true
}

func (s summary) spread() float64 {
	if s.med == 0 {
		return 0
	}
	d := (s.q3 - s.q1) / s.med
	if d < 0 {
		d = -d
	}
	return d
}

// verdict judges set b against set a for one metric. The change is how
// far b's median is on the worse side of a's, as a share of a's; a metric
// whose spread in either set is wider than its bound cannot be resolved.
func verdict(m metricSpec, a, b summary) (change float64, word string) {
	if a.med != 0 {
		change = (b.med - a.med) / a.med
	}
	worse := change
	if m.Better == "higher" {
		worse = -change
	}
	switch {
	case a.spread() > m.Bound || b.spread() > m.Bound:
		word = "unresolved"
	case worse > m.Bound:
		word = "worse"
	default:
		word = "same"
	}
	return change, word
}

// compareFiles prints, per workload and end-to-end metric, both sets'
// medians and quartiles, the relative change and the verdict. It fails
// when any pairing is worse.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) error {
	a, err := loadRuns(pathA)
	if err != nil {
		return err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return err
	}
	worse := 0
	for _, wl := range sp.Workloads {
		fmt.Fprintf(w, "workload %s  (%d and %d runs)\n", wl.Name, len(a[wl.Name]), len(b[wl.Name]))
		fmt.Fprintf(w, "  %-26s %-9s %13s %22s %13s %22s %8s %6s  %s\n",
			"metric", "unit", "a median", "a quartiles", "b median", "b quartiles", "change", "bound", "verdict")
		for _, m := range sp.EndToEnd {
			sa, okA := summarize(a[wl.Name], m)
			sb, okB := summarize(b[wl.Name], m)
			if !okA || !okB {
				fmt.Fprintf(w, "  %-26s missing from one set\n", m.Name)
				worse++
				continue
			}
			change, word := verdict(m, sa, sb)
			if word == "worse" {
				worse++
			}
			fmt.Fprintf(w, "  %-26s %-9s %13.6g %10.5g..%-10.5g %13.6g %10.5g..%-10.5g %+7.2f%% %5.0f%%  %s\n",
				m.Name, m.Unit, sa.med, sa.q1, sa.q3, sb.med, sb.q1, sb.q3, 100*change, 100*m.Bound, word)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d workload/metric pairings are worse or missing", worse)
	}
	return nil
}
