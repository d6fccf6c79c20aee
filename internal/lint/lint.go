// Package lint is EventSpace's project-specific static-analysis suite.
// The monitoring stack's low-overhead claim rests on invariants the Go
// compiler cannot see: instrumented code must read modelled time
// (hrtime/vclock), never wall time, so RunVirtual traces stay exact;
// the self-metrics write path must stay nil-safe so the disabled
// configuration costs one nil check; stop channels must close exactly
// once (the Puller.Stop bug class); every goroutine there must be a
// stoppable vclock.Go launch; marked hot paths must not allocate; and
// retries must be decided by the error classifier. Each invariant is an
// Analyzer here, run by cmd/eslint in CI alongside vet and staticcheck.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is built on the standard library
// only — go/parser, go/types and the source importer — so the suite
// needs no dependencies outside the toolchain.
//
// Findings are suppressed per line with an annotation carrying a
// mandatory reason:
//
//	//lint:allow wallclock tests poll a real goroutine
//
// on the flagged line or the line above, or per file with
// //lint:file-allow. An annotation without a reason, one naming an
// unknown analyzer, and one that suppresses no finding are each
// themselves a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer checks one invariant over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:allow
	// annotations.
	Name string
	// Doc is a one-paragraph description: the invariant guarded and
	// the bug class it prevents.
	Doc string
	// Run reports findings on the pass via pass.Reportf.
	Run func(*Pass) error
}

// Suite is every analyzer in the order reports are printed. The first
// three are per-statement AST matchers; the last three (goroleak,
// hotalloc, errclass) are dataflow analyzers built on the
// internal/lint/cfg control-flow graphs.
func Suite() []*Analyzer {
	return []*Analyzer{Wallclock, CloseOnce, NilSafe, Goroleak, Hotalloc, ErrClass}
}

// A Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// A Pass hands one analyzer one loaded package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	report func(Diagnostic)
}

// Reportf records a finding at pos unless an allow annotation
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowRe matches one annotation line. Group 1 is the scope (allow or
// file-allow), group 2 the comma-separated analyzer names, group 3 the
// reason.
var allowRe = regexp.MustCompile(`^//\s*lint:(allow|file-allow)\s+([a-zA-Z0-9_,-]+)(?:[ \t]+(\S.*))?$`)

// allowKey is what one annotation suppresses: one analyzer's findings
// on a line and the line below it, or in a whole file (line 0).
type allowKey struct {
	file, analyzer string
	line           int
}

// An allow is one analyzer name of one valid annotation.
type allow struct {
	pos  token.Position
	text string // "lint:allow goroleak", for the unused-allow finding
	used bool
}

// buildAllowIndex parses a package's annotations. It indexes the
// allows for the analyzers about to run, and returns as findings the
// annotations that can never suppress anything: a missing reason, or
// an analyzer name the suite does not have.
func buildAllowIndex(pkg *Package, analyzers []*Analyzer) (map[allowKey]*allow, []Diagnostic) {
	known := make(map[string]bool)
	for _, a := range Suite() {
		known[a.Name] = true
	}
	running := make(map[string]bool)
	for _, a := range analyzers {
		running[a.Name] = true
	}
	allows := make(map[allowKey]*allow)
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if strings.TrimSpace(m[3]) == "" {
					diags = append(diags, Diagnostic{
						Pos:      pos,
						Analyzer: "lint",
						Message:  fmt.Sprintf("lint:%s %s needs a reason; a bare annotation suppresses nothing", m[1], m[2]),
					})
					continue
				}
				for _, name := range strings.Split(m[2], ",") {
					name = strings.TrimSpace(name)
					switch {
					case name == "":
					case !known[name]:
						diags = append(diags, Diagnostic{
							Pos:      pos,
							Analyzer: "lint",
							Message:  fmt.Sprintf("lint:%s names unknown analyzer %q; the annotation suppresses nothing", m[1], name),
						})
					case running[name]:
						key := allowKey{pos.Filename, name, pos.Line}
						if m[1] == "file-allow" {
							key.line = 0
						}
						allows[key] = &allow{pos: pos, text: "lint:" + m[1] + " " + name}
					}
				}
			}
		}
	}
	return allows, diags
}

// suppress reports whether d is covered by an annotation — a
// file-allow for its analyzer, or a line allow on the same line or the
// line above — and marks that annotation used.
func suppress(allows map[allowKey]*allow, d Diagnostic) bool {
	for _, line := range [...]int{0, d.Pos.Line, d.Pos.Line - 1} {
		if a := allows[allowKey{d.Pos.Filename, d.Analyzer, line}]; a != nil {
			a.used = true
			return true
		}
	}
	return false
}

// RunPackage runs the analyzers over one package and returns the
// unsuppressed findings, sorted by position. Annotation findings — a
// missing reason, an unknown analyzer, an allow for a run analyzer
// that suppressed nothing — are reported under the pseudo-analyzer
// "lint".
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	allows, diags := buildAllowIndex(pkg, analyzers)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Pkg:      pkg,
			report: func(d Diagnostic) {
				if !suppress(allows, d) {
					diags = append(diags, d)
				}
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	for _, a := range allows {
		if !a.used {
			diags = append(diags, Diagnostic{
				Pos:      a.pos,
				Analyzer: "lint",
				Message:  a.text + " suppresses no finding; delete it",
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// walkStack visits every node of f depth-first, handing fn the node and
// the stack of its ancestors (stack[len-1] is n itself). It never
// prunes, so analyzers see every node.
func walkStack(f *ast.File, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		fn(n, stack)
		return true
	})
}

// instrumentedPkgs are the packages whose code runs on the monitoring
// hot path and must stay on modelled time. wallclock applies here.
var instrumentedPkgs = map[string]bool{
	"eventspace/internal/paths":      true,
	"eventspace/internal/collect":    true,
	"eventspace/internal/escope":     true,
	"eventspace/internal/monitor":    true,
	"eventspace/internal/metrics":    true,
	"eventspace/internal/pastset":    true,
	"eventspace/internal/archive":    true,
	"eventspace/internal/reconfig":   true,
	"eventspace/internal/query":      true,
	"eventspace/internal/checkpoint": true,
	"eventspace/cmd/esquery":         true,
}

// nilSafePkgs are the packages whose exported pointer-receiver methods
// must be no-ops on nil receivers (the disabled configuration).
var nilSafePkgs = map[string]bool{
	"eventspace/internal/metrics": true,
}
