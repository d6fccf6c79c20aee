package lint

import (
	"runtime"
	"sync"
)

// RunPackages runs the analyzers over every package, one worker per
// CPU, and returns per-package findings in the input order, so output
// stays deterministic regardless of scheduling. Analysis is read-only
// over each package's own syntax and types — packages share only the
// FileSet and the loader's completed import cache, both safe to read
// concurrently — which makes per-package fan-out the natural unit.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) ([][]Diagnostic, error) {
	workers := min(runtime.NumCPU(), len(pkgs))
	results := make([][]Diagnostic, len(pkgs))
	errs := make([]error, len(pkgs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = RunPackage(pkgs[i], analyzers)
			}
		}()
	}
	for i := range pkgs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
