package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// wantRe matches a fixture expectation comment: one or more quoted
// regular expressions after "// want".
var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// quotedRe extracts the individual quoted patterns.
var quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"` + "|`[^`]*`")

// expectation is one unmatched want pattern at a fixture line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
}

// Fixtures live under testdata/src/<dir>; each is a package checked
// under an import path of the test's choosing (so a fixture can pose
// as an instrumented package). Expected findings are "// want"
// comments on the offending line, golang.org/x/tools/go/analysis/
// analysistest style:
//
//	start := time.Now() // want `time\.Now reads wall time`
//
// Every diagnostic must match a want on its line and every want must
// be matched, else the errors are returned.
type fixtureResult struct {
	Diags  []Diagnostic
	Errors []string
}

// runFixture loads testdata/src/<dir> as asPath and checks analyzer
// findings against the fixture's want comments.
func runFixture(loader *Loader, a *Analyzer, testdata, dir, asPath string) (*fixtureResult, error) {
	fixDir := filepath.Join(testdata, "src", dir)
	pkgs, err := loader.LoadAs(fixDir, asPath)
	if err != nil {
		return nil, err
	}
	res := &fixtureResult{}
	var wants []*expectation
	for _, pkg := range pkgs {
		diags, err := RunPackage(pkg, []*Analyzer{a})
		if err != nil {
			return nil, err
		}
		res.Diags = append(res.Diags, diags...)
		w, err := collectWants(fixDir, pkg)
		if err != nil {
			return nil, err
		}
		wants = append(wants, w...)
	}
	matched := make([]bool, len(wants))
	for _, d := range res.Diags {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			res.Errors = append(res.Errors, fmt.Sprintf("unexpected diagnostic: %s", d))
		}
	}
	for i, w := range wants {
		if !matched[i] {
			res.Errors = append(res.Errors,
				fmt.Sprintf("%s:%d: no diagnostic matched want %s", w.file, w.line, w.raw))
		}
	}
	return res, nil
}

// collectWants parses the want comments out of a fixture package.
func collectWants(dir string, pkg *Package) ([]*expectation, error) {
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range quotedRe.FindAllString(m[1], -1) {
					pat := q
					if strings.HasPrefix(q, "\"") {
						var err error
						pat, err = strconv.Unquote(q)
						if err != nil {
							return nil, fmt.Errorf("%s:%d: bad want pattern %s: %w", pos.Filename, pos.Line, q, err)
						}
					} else {
						pat = strings.Trim(q, "`")
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %s: %w", pos.Filename, pos.Line, q, err)
					}
					wants = append(wants, &expectation{
						file: pos.Filename,
						line: pos.Line,
						re:   re,
						raw:  q,
					})
				}
			}
		}
	}
	return wants, nil
}
