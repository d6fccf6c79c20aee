package lint

import (
	"strings"
	"sync"
	"testing"
)

// One loader for the whole test binary: the source importer's std
// cache is the expensive part, and it is shared across fixtures.
var (
	loaderOnce sync.Once
	testLoader *Loader
	loaderErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			loaderErr = err
			return
		}
		testLoader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return testLoader
}

// checkFixture runs one analyzer over one fixture dir posing as asPath
// and fails on any mismatch with the fixture's want comments.
func checkFixture(t *testing.T, a *Analyzer, dir, asPath string) *fixtureResult {
	t.Helper()
	res, err := runFixture(fixtureLoader(t), a, "testdata", dir, asPath)
	if err != nil {
		t.Fatalf("fixture %s: %v", dir, err)
	}
	for _, e := range res.Errors {
		t.Error(e)
	}
	return res
}

func TestWallclockFixture(t *testing.T) {
	res := checkFixture(t, Wallclock, "wallclock", "eventspace/internal/collect")
	if len(res.Diags) == 0 {
		t.Fatal("wallclock flagged nothing in an instrumented fixture")
	}
}

func TestWallclockScopedToInstrumentedPackages(t *testing.T) {
	res := checkFixture(t, Wallclock, "wallclock_out", "eventspace/cmd/esbench")
	if len(res.Diags) != 0 {
		t.Fatalf("wallclock fired outside instrumented packages: %v", res.Diags)
	}
}

func TestCloseOnceFixture(t *testing.T) {
	res := checkFixture(t, CloseOnce, "closeonce", "eventspace/internal/escope")
	// The fixture reproduces the Puller.Stop double-close: the racy
	// Stop must be among the findings.
	found := false
	for _, d := range res.Diags {
		if strings.Contains(d.Message, "close(p.stop)") {
			found = true
		}
	}
	if !found {
		t.Fatal("closeonce missed the Puller.Stop double-close reproduction")
	}
}

func TestNilSafeFixture(t *testing.T) {
	res := checkFixture(t, NilSafe, "nilsafe", "eventspace/internal/metrics")
	if len(res.Diags) == 0 {
		t.Fatal("nilsafe flagged nothing")
	}
}

// outOfScope runs analyzer a over a fixture posed as a package outside
// its scope and returns a's own findings. The fixture's allows for a
// then suppress nothing, so the unused-allow findings they draw are
// expected and left out.
func outOfScope(t *testing.T, a *Analyzer, dir, asPath string) []Diagnostic {
	t.Helper()
	res, err := runFixture(fixtureLoader(t), a, "testdata", dir, asPath)
	if err != nil {
		t.Fatal(err)
	}
	var own []Diagnostic
	for _, d := range res.Diags {
		if d.Analyzer == a.Name {
			own = append(own, d)
		}
	}
	return own
}

func TestNilSafeScopedToMetrics(t *testing.T) {
	if diags := outOfScope(t, NilSafe, "nilsafe", "eventspace/internal/paths"); len(diags) != 0 {
		t.Fatalf("nilsafe fired outside the metrics package: %v", diags)
	}
}

func TestGoroleakFixture(t *testing.T) {
	res := checkFixture(t, Goroleak, "goroleak", "eventspace/internal/archive")
	if len(res.Diags) != 3 {
		t.Fatalf("goroleak found %d findings, want 2 leaks and 1 plain go statement: %v", len(res.Diags), res.Diags)
	}
}

func TestGoroleakScopedToGoroutinePackages(t *testing.T) {
	if diags := outOfScope(t, Goroleak, "goroleak", "eventspace/cmd/esbench"); len(diags) != 0 {
		t.Fatalf("goroleak fired outside the instrumented packages: %v", diags)
	}
}

func TestHotallocFixture(t *testing.T) {
	res := checkFixture(t, Hotalloc, "hotalloc", "eventspace/internal/lintfixture/hotalloc")
	if len(res.Diags) < 10 {
		t.Fatalf("hotalloc found only %d allocation sites: %v", len(res.Diags), res.Diags)
	}
}

func TestErrClassFixture(t *testing.T) {
	res := checkFixture(t, ErrClass, "errclass", "eventspace/internal/escope")
	if len(res.Diags) != 3 {
		t.Fatalf("errclass found %d raw retry deciders, want 3: %v", len(res.Diags), res.Diags)
	}
}

func TestErrClassScopedToTransportPackages(t *testing.T) {
	if diags := outOfScope(t, ErrClass, "errclass", "eventspace/internal/collect"); len(diags) != 0 {
		t.Fatalf("errclass fired outside paths/escope: %v", diags)
	}
}

// TestAnnotationNeedsReason: a bare //lint:allow and one naming an
// unknown analyzer are reported under the pseudo-analyzer "lint" and do
// not suppress the finding they sit on; an allow that suppresses no
// finding is reported too.
func TestAnnotationNeedsReason(t *testing.T) {
	loader := fixtureLoader(t)
	pkgs, err := loader.LoadAs("testdata/src/annot", "eventspace/internal/collect")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages", len(pkgs))
	}
	diags, err := RunPackage(pkgs[0], []*Analyzer{Wallclock})
	if err != nil {
		t.Fatal(err)
	}
	var malformed, unknown, unused, unsuppressed int
	for _, d := range diags {
		switch {
		case d.Analyzer == "lint" && strings.Contains(d.Message, "needs a reason"):
			malformed++
		case d.Analyzer == "lint" && strings.Contains(d.Message, `unknown analyzer "vcregister"`):
			unknown++
		case d.Analyzer == "lint" && strings.Contains(d.Message, "suppresses no finding"):
			unused++
		case d.Analyzer == "wallclock":
			unsuppressed++
		}
	}
	if malformed != 1 {
		t.Error("bare lint:allow was not reported as malformed")
	}
	if unknown != 1 {
		t.Error("lint:allow naming an unknown analyzer was not reported")
	}
	if unused != 1 {
		t.Error("lint:allow that suppresses nothing was not reported")
	}
	if unsuppressed != 2 {
		t.Errorf("bare and unknown-analyzer allows must leave their findings standing; %d of 2 did", unsuppressed)
	}
	if len(diags) != 5 {
		t.Errorf("want exactly 5 diagnostics (malformed, unknown, unused, 2 unsuppressed), got %d: %v", len(diags), diags)
	}
}

// TestSuiteCleanOnRepo is the acceptance gate: the whole suite over
// the whole module must report nothing — no finding, and no bare,
// unknown-analyzer or unused allow. This is the same run CI does via
// cmd/eslint.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	loader := fixtureLoader(t)
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("module load found only %d packages", len(pkgs))
	}
	perPkg, err := RunPackages(pkgs, Suite())
	if err != nil {
		t.Fatal(err)
	}
	for _, diags := range perPkg {
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
