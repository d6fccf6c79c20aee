package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"eventspace/internal/collect"
	"eventspace/internal/escope"
	"eventspace/internal/hrtime"
	"eventspace/internal/pastset"
	"eventspace/internal/paths"
	"eventspace/internal/vclock"
	"eventspace/internal/vnet"
)

// The staleness bench quantifies the degradation ladder's
// accuracy-versus-overhead trade under a straggler storm: five source
// hosts, two of them slowed 80x by a seeded FaultSlow, pulled round by
// round in each of the three scope modes. Overhead is the per-round
// gather latency in modelled time; accuracy is how much of the written
// trace payload the monitor retains (and, separately, observes at all —
// summary-only observes batches it does not retain).

const (
	stalenessHosts = 5
	stalenessSlow  = 2
	// Records are trace-tuple sized, as a raw-trace gather's are.
	stalenessRecSize = collect.TupleSize
	stalenessRounds  = 24
)

var stalenessSeeds = []uint64{1, 2, 3}

// stalenessRun is one (mode, seed) storm measurement.
type stalenessRun struct {
	meanRound time.Duration
	maxRound  time.Duration
	written   int // records written into the source elements
	retained  int // records delivered to the monitor
	observed  int // retained + records summary-only mode counted and dropped
	stale     int // children coasting on stale data at the end
	skipped   int // children with no data within the staleness bound
}

// runStalenessStorm drives one storm under the virtual clock and, as a
// load-balance monitor's gather thread does, retains each gathered batch
// — or, in summary-only mode, only counts it.
func runStalenessStorm(t *testing.T, seed uint64, mode escope.Mode, rounds int) stalenessRun {
	t.Helper()
	vclock.Enable(0)
	defer vclock.Disable()
	defer vclock.Quiesce(10 * time.Second)

	n := vnet.NewNetwork(vnet.FastEthernet, vnet.DefaultCostModel())
	fe, err := n.AddStandaloneHost("fe", 4)
	if err != nil {
		t.Fatal(err)
	}
	sources := make([]escope.Source, stalenessHosts)
	elems := make([]*pastset.Element, stalenessHosts)
	for i := 0; i < stalenessHosts; i++ {
		h, err := n.AddStandaloneHost(fmt.Sprintf("h%d", i), 2)
		if err != nil {
			t.Fatal(err)
		}
		if elems[i], err = pastset.NewElementFixed(fmt.Sprintf("trace%d", i), 4096, stalenessRecSize); err != nil {
			t.Fatal(err)
		}
		sources[i] = escope.Source{Host: h, Elem: elems[i], RecSize: stalenessRecSize}
	}
	scope, err := escope.Build(n, escope.Spec{
		Name:        "staleness",
		FrontEnd:    fe,
		RootHelpers: stalenessHosts,
		Sources:     sources,
		Health:      &escope.HealthPolicy{},
		Breaker: &escope.BreakerPolicy{
			RoundDeadline:  time.Millisecond,
			TripAfter:      2,
			ReopenBase:     2 * time.Millisecond,
			ReopenMax:      8 * time.Millisecond,
			StalenessBound: 25 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	scope.SetMode(mode)
	defer scope.Close()
	// Factor 80 inflates each slowed host's service time ~2.4–7.3ms
	// against a ~300µs healthy round trip and a 1ms round deadline.
	n.InjectFaults(vnet.FaultPlan{Seed: seed, Events: []vnet.FaultEvent{
		{At: 0, Kind: vnet.FaultSlow, Host: "h1", Factor: 80},
		{At: 0, Kind: vnet.FaultSlow, Host: "h3", Factor: 80},
	}})
	defer n.ClearFaults()

	var res stalenessRun
	summarized := 0
	var total time.Duration
	for r := 0; r < rounds; r++ {
		for _, e := range elems {
			rec := make([]byte, stalenessRecSize)
			rec[0] = byte(r)
			if _, err := e.WriteCopy(rec); err != nil {
				t.Fatal(err)
			}
			res.written++
		}
		records := 0 // the gathered batch's; the send on ch publishes it
		ch := make(chan time.Duration, 1)
		vclock.Go(func() {
			ctx := &paths.Ctx{Thread: "staleness/driver"}
			start := hrtime.Now()
			rep, err := scope.Pull(ctx)
			if err != nil {
				t.Errorf("round %d pull: %v", r, err)
			}
			d := time.Duration(hrtime.Since(start))
			records = len(rep.Data) / stalenessRecSize
			hrtime.Sleep(500 * time.Microsecond) // inter-round interval
			ch <- d
		})
		d := <-ch
		total += d
		if d > res.maxRound {
			res.maxRound = d
		}
		if mode == escope.ModeSummary {
			summarized += records
		} else {
			res.retained += records
		}
	}
	res.meanRound = total / time.Duration(rounds)
	res.observed = res.retained + summarized
	cov := scope.Coverage()
	res.stale = len(cov.Stale)
	res.skipped = len(cov.Skipped)
	return res
}

// TestRecordStalenessBench runs the straggler storm in every scope mode
// at each seed and, when STALENESS_BENCH_OUT names a file (the Makefile
// bench-staleness target), records the accuracy-versus-overhead table
// as JSON. The table is one sample, not a pinned result: under -race
// the storm's ties resolve in either order, so two runs of one commit
// differ in a few of its figures. Without the variable it only
// sanity-checks the trade: strict stalls on the stragglers,
// bounded-staleness holds the deadline while observing most of the
// trace, summary-only retains no payload.
func TestRecordStalenessBench(t *testing.T) {
	modes := []escope.Mode{escope.ModeStrict, escope.ModeBounded, escope.ModeSummary}
	type agg struct {
		MeanRoundUs     float64 `json:"mean_round_us"`
		MaxRoundUs      float64 `json:"max_round_us"`
		RetainedRatio   float64 `json:"retained_ratio"`
		ObservedRatio   float64 `json:"observed_ratio"`
		StaleChildren   float64 `json:"stale_children"`
		Skipped         float64 `json:"skipped_children"`
		RoundsPerSeed   int     `json:"rounds_per_seed"`
		SeedsAggregated int     `json:"seeds_aggregated"`
	}
	report := map[string]any{
		"hosts":       stalenessHosts,
		"slow_hosts":  stalenessSlow,
		"slow_factor": 80,
		"rounds":      stalenessRounds,
		"seeds":       stalenessSeeds,
		"policy": map[string]any{
			"round_deadline_us":   1000,
			"staleness_bound_us":  25000,
			"trip_after_overruns": 2,
		},
	}
	byMode := map[string]agg{}
	for _, mode := range modes {
		var a agg
		a.RoundsPerSeed = stalenessRounds
		a.SeedsAggregated = len(stalenessSeeds)
		for _, seed := range stalenessSeeds {
			run := runStalenessStorm(t, seed, mode, stalenessRounds)
			a.MeanRoundUs += float64(run.meanRound.Microseconds())
			if mu := float64(run.maxRound.Microseconds()); mu > a.MaxRoundUs {
				a.MaxRoundUs = mu
			}
			a.RetainedRatio += float64(run.retained) / float64(run.written)
			a.ObservedRatio += float64(run.observed) / float64(run.written)
			a.StaleChildren += float64(run.stale)
			a.Skipped += float64(run.skipped)
		}
		nseeds := float64(len(stalenessSeeds))
		a.MeanRoundUs /= nseeds
		a.RetainedRatio /= nseeds
		a.ObservedRatio /= nseeds
		a.StaleChildren /= nseeds
		a.Skipped /= nseeds
		byMode[mode.String()] = a
	}
	report["modes"] = byMode

	strict, bounded, summary := byMode["strict"], byMode["bounded-staleness"], byMode["summary-only"]
	if strict.RetainedRatio < 1 {
		t.Errorf("strict mode retained %.3f of the trace, want all of it", strict.RetainedRatio)
	}
	if strict.MeanRoundUs < 2000 {
		t.Errorf("strict mean round %.0fus: the storm did not stall strict mode", strict.MeanRoundUs)
	}
	if bounded.MaxRoundUs > 2000 {
		t.Errorf("bounded-staleness max round %.0fus exceeds 2x the 1ms deadline", bounded.MaxRoundUs)
	}
	if bounded.ObservedRatio < 0.6 {
		t.Errorf("bounded-staleness observed only %.3f of the trace (healthy hosts alone are 0.6)", bounded.ObservedRatio)
	}
	if summary.RetainedRatio != 0 {
		t.Errorf("summary-only retained %.3f of the payload, want none", summary.RetainedRatio)
	}
	if summary.ObservedRatio < 0.6 {
		t.Errorf("summary-only observed only %.3f of the trace", summary.ObservedRatio)
	}

	out := os.Getenv("STALENESS_BENCH_OUT")
	if out == "" {
		return
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("staleness bench recorded to %s", out)
}
