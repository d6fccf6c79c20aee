// Command eslint runs EventSpace's project-specific static-analysis
// suite (internal/lint): the invariants the monitoring stack's
// low-overhead claim rests on, enforced at compile time. It is a
// multichecker in the x/tools mold, built on the standard library
// only, and runs in CI alongside go vet and staticcheck:
//
//	go run ./cmd/eslint ./...        # whole module, whole suite
//	go run ./cmd/eslint -list        # describe the analyzers
//	go run ./cmd/eslint -json ./...  # machine-readable findings
//
// Every run executes every analyzer, so the same run also reports each
// //lint:allow that lacks a reason, names an unknown analyzer, or
// suppresses no finding. Packages are analyzed in parallel (one worker
// per CPU) with deterministic output order, and the summary line
// reports wall time so CI logs track the suite's cost.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"eventspace/internal/lint"
)

func main() {
	os.Exit(run())
}

// jsonDiag is the -json wire form of one finding.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run() int {
	list := flag.Bool("list", false, "list analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: eslint [-list] [-json] [./...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Suite()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	// The only supported patterns are the whole module (./... or no
	// argument) — the suite is cheap enough to always run whole.
	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "..." {
			fmt.Fprintf(os.Stderr, "eslint: unsupported pattern %q; the suite runs whole-module (./...)\n", arg)
			return 2
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "eslint:", err)
		return 2
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eslint:", err)
		return 2
	}

	start := time.Now()
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eslint:", err)
		return 2
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fmt.Fprintln(os.Stderr, "eslint:", err)
		return 2
	}
	perPkg, err := lint.RunPackages(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eslint:", err)
		return 2
	}
	var diags []lint.Diagnostic
	for _, d := range perPkg {
		diags = append(diags, d...)
	}

	rel := func(name string) string {
		if r, err := filepath.Rel(root, name); err == nil {
			return r
		}
		return name
	}
	if *asJSON {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File: rel(d.Pos.Filename), Line: d.Pos.Line, Column: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "eslint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: %s (%s)\n", rel(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
		}
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "eslint: %d finding(s) across %d package(s) in %v\n", len(diags), len(pkgs), elapsed)
		return 1
	}
	fmt.Fprintf(os.Stderr, "eslint: clean — %d package(s), %d analyzer(s) in %v\n", len(pkgs), len(analyzers), elapsed)
	return 0
}
