package bench

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"eventspace/internal/cosched"
	"eventspace/internal/vclock"
	"eventspace/internal/vnet"
)

var updateFingerprint = flag.Bool("update", false, "rewrite testdata/model_fingerprint.golden")

// fingerprintRows are small versions of the paper's rows, one for each
// kind of traffic the model moves: a single-cluster Table 1 row, a LAN
// row whose messages cross the gateways, a WAN row that draws the
// Longcut emulator's delays, and a Table 3 statistics-monitor row.
func fingerprintRows() []struct {
	name string
	spec RunSpec
} {
	o := QuickOptions()
	small := func(spec RunSpec, iterations int) RunSpec {
		spec.Iterations = iterations
		spec.TraceBufCap = traceCap(iterations)
		spec.MonitorCfg.IntermediateCap = traceCap(iterations)
		if spec.Workload == ComputeGsum {
			spec.ComputeDuration = 300 * time.Microsecond
		}
		return spec
	}
	return []struct {
		name string
		spec RunSpec
	}{
		{"t1/tin16/par", small(o.lbSpec("tin32", LBSingleScope, true, ComputeGsum), 80)},
		{"t2/lan/par", small(o.lbSpec("lan", LBDistributed, true, ComputeGsum), 24)},
		{"t2/wan/seq", small(o.lbSpec("wan", LBDistributed, false, ComputeGsum), 10)},
		{"t3/tin16/seq", small(o.statsmSpec("tin32", Statsm, false, cosched.AfterUnblock), 80)},
	}
}

// seeded runs fn as one model goroutine on the virtual clock under the
// given tie-break seed and returns its error and the clock's final time.
func seeded(seed uint64, fn func() error) (int64, error) {
	vclock.Enable(0, seed)
	var err error
	var done vclock.WaitGroup
	done.Add(1)
	vclock.Go(func() {
		defer done.Done()
		err = fn()
	})
	done.Wait()
	stall := vclock.Quiesce(10 * time.Second)
	now := vclock.Now()
	vclock.Disable()
	return now, errors.Join(err, stall)
}

// faultScenario runs calls from three clients on two clusters through a
// fault plan with drop and spike rules, a slow host and a crash in the
// middle of the run, and reports the outcomes and the network's count.
func faultScenario() (string, error) {
	net := vnet.NewNetwork(vnet.FastEthernet, vnet.DefaultCostModel())
	a, err := net.AddCluster("a", "site", 2, 1, vnet.GigabitEthernet)
	if err != nil {
		return "", err
	}
	b, err := net.AddCluster("b", "site", 2, 1, vnet.GigabitEthernet)
	if err != nil {
		return "", err
	}
	net.InjectFaults(vnet.FaultPlan{
		Seed:        11,
		CallTimeout: 500 * time.Microsecond,
		Events: []vnet.FaultEvent{
			{At: time.Millisecond, Kind: vnet.FaultSlow, Host: "b-0", Factor: 3},
			{At: 3 * time.Millisecond, Kind: vnet.FaultCrash, Host: "b-1"},
			{At: 5 * time.Millisecond, Kind: vnet.FaultRestart, Host: "b-1"},
		},
		Rules: []vnet.FaultRule{{DropProb: 0.1, SpikeProb: 0.2, SpikeDelay: 300 * time.Microsecond}},
	})
	echo := func(p []byte) ([]byte, error) { return p, nil }
	type client struct {
		from, to *vnet.Host
		ok       int
		errs     map[string]int
	}
	clients := []*client{
		{from: a.Hosts()[0], to: b.Hosts()[0]},
		{from: a.Hosts()[0], to: b.Hosts()[1]},
		{from: a.Hosts()[1], to: a.Hosts()[0]},
	}
	wg := vclock.NewWaitGroup()
	for _, cl := range clients {
		cl.errs = map[string]int{}
		wg.Add(1)
		vclock.Go(func() {
			defer wg.Done()
			conn := net.Dial(cl.from, cl.to, echo)
			defer func() { conn.Close() }()
			for i := 0; i < 100; i++ {
				_, err := conn.Call(make([]byte, 64))
				switch {
				case err == nil:
					cl.ok++
				case errors.Is(err, vnet.ErrConnClosed):
					cl.errs[err.Error()]++
					conn.Close()
					conn = net.Dial(cl.from, cl.to, echo)
				default:
					cl.errs[err.Error()]++
				}
			}
		})
	}
	wg.Wait()
	var out strings.Builder
	for i, cl := range clients {
		fmt.Fprintf(&out, " c%d=%d/%d/%d/%d", i, cl.ok, cl.errs[vnet.ErrTimeout.Error()],
			cl.errs[vnet.ErrHostDown.Error()], cl.errs[vnet.ErrConnClosed.Error()])
	}
	fmt.Fprintf(&out, " msgs=%d", net.Messages())
	return out.String(), nil
}

// TestModelFingerprint pins what the model computes, run by run: the
// modelled time, the messages and the gather rates of a few small rows,
// and the outcomes of a fault scenario, each with the clock's final
// time, under tie-break seeds 0 and 1. A change to how the clock runs
// the model that keeps its schedule leaves every line as it is; rewrite
// the file with -update only for a change that means to move the model.
func TestModelFingerprint(t *testing.T) {
	var lines []string
	for _, seed := range []uint64{0, 1} {
		for _, row := range fingerprintRows() {
			var res RunResult
			now, err := seeded(seed, func() error { return runSystem(row.spec, &res) })
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, row.name, err)
			}
			lines = append(lines, fmt.Sprintf("seed=%d %s modelled_ns=%d msgs=%d gather=%v wrapper=%v thread=%v now=%d",
				seed, row.name, res.Duration.Nanoseconds(), res.Messages, res.GatherRate, res.WrapperGatherRate, res.ThreadGatherRate, now))
		}
		var got string
		now, err := seeded(seed, func() (err error) {
			got, err = faultScenario()
			return err
		})
		if err != nil {
			t.Fatalf("seed %d vnet faults: %v", seed, err)
		}
		lines = append(lines, fmt.Sprintf("seed=%d vnet/faults%s now=%d", seed, got, now))
	}
	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "model_fingerprint.golden")
	if *updateFingerprint {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("model fingerprint moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}
