// Command benchmark is the repository's benchmark: it measures the
// monitoring stack end to end and layer by layer, checks every output
// against a reference, and prints each metric by name with its unit. See
// README.md in this directory and BENCHMARK.json at the root.
//
// Usage, from the root of a checkout (run.sh builds the program and runs
// it, keeping the build inside the checkout):
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash benchmark/run.sh [-runs n] [-out file]        every workload, each in a child process
//	bash benchmark/run.sh -compare a.jsonl b.jsonl     two sets of runs against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
)

// scratchDir is where runs keep archives and leave trace.json, under the
// root of the checkout; .gitignore names it.
const scratchDir = ".bench_out"

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	name := flag.String("workload", "", "workload to run (default: all, each in a child process)")
	seed := flag.Uint64("seed", 2005, "seed of every generated input")
	seconds := flag.Float64("seconds", 0, "seconds to measure for (default: run_seconds of "+specFile+")")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	cpuprofile := flag.String("cpuprofile", "", "directory the traced run writes <workload>.pprof to")
	out := flag.String("out", "", "file to append each run's full record to, one JSON object per line")
	runs := flag.Int("runs", 1, "with no -workload: runs of each workload, on seeds seed, seed+1, ...")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments against the bounds of "+specFile)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare wants two files")
		}
		return compareFiles(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
	}
	if *seconds == 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *name == "" {
		return runAll(sp, *seed, *seconds, *trace, *cpuprofile, *out, *runs)
	}

	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	scratch := filepath.Join(root, scratchDir)
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	cfg := config{
		Workload: w, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
		Sizes: benchmarkSizes, Scratch: scratch, CPUProfile: *cpuprofile,
	}
	rep, err := run(cfg)
	if err != nil {
		return err
	}
	want := sp.wanted(cfg.Trace)
	rep.print(os.Stdout, want, !cfg.Trace)
	if *out != "" {
		if err := appendRecord(*out, rep); err != nil {
			return err
		}
	}
	line, err := rep.result(want, !cfg.Trace)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if !rep.correct() {
		return fmt.Errorf("%d of %d operations failed their reference check", rep.Failed, rep.Attempted)
	}
	return nil
}

// runAll runs every workload of the contract, each in a child process of
// its own: the virtual clock and the time scale are process-global, and
// peak_rss_mb is a property of a process.
func runAll(sp *spec, seed uint64, seconds float64, trace int, cpuprofile, out string, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 0; i < runs; i++ {
		for _, w := range sp.Workloads {
			args := []string{
				"-workload", w.Name, "-seed", fmt.Sprint(seed + uint64(i)),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace),
			}
			if cpuprofile != "" {
				args = append(args, "-cpuprofile", cpuprofile)
			}
			if out != "" {
				args = append(args, "-out", out)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("workload %s: %w", w.Name, err)
			}
		}
	}
	return nil
}

// appendRecord adds the run's full record — every metric with quartiles
// and sample counts — to path as one line.
func appendRecord(path string, rep *report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startCPUProfile profiles the run into <dir>/<workload>.pprof when a
// directory was given. The returned function stops it.
func startCPUProfile(cfg config) (stop func(), err error) {
	if cfg.CPUProfile == "" {
		return func() {}, nil
	}
	if err := os.MkdirAll(cfg.CPUProfile, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(cfg.CPUProfile, cfg.Workload.Name+".pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}
