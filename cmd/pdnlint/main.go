// Command pdnlint runs the repo-specific static-analysis suite
// (internal/lint) over the module: detrand, ctxflow, mutexspan,
// errwrap, goleak, and obsnames enforce the determinism,
// context-plumbing, concurrency, and telemetry-naming invariants the
// parallel detector's byte-identical-tables guarantee depends on;
// peertaint and lockorder are the module-wide interprocedural checks
// guarding the privacy invariant and the declared lock hierarchy. See
// docs/lint.md.
//
// Usage:
//
//	pdnlint [-only name,name] [-json] [packages]
//
// Packages default to ./... resolved from the current directory; `go
// vet` is a separate step. Findings print as file:line:col: [analyzer]
// message — or, with -json, as a JSON array (one object per finding, an
// empty array when clean) suitable as a CI artifact.
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.
//
// Suppress an intentional finding with a mandatory reason:
//
//	//lint:ignore pdnlint/<analyzer> reason
//
// on the finding's line or the line directly above it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/stealthy-peers/pdnsec/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is one finding in the -json report.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pdnlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintf(stderr, "pdnlint: %v\n", err)
		return 2
	}

	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "pdnlint: %v\n", err)
		return 2
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "pdnlint: %v\n", err)
		return 2
	}

	cwd, _ := os.Getwd()
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, jsonFinding{
			Analyzer: d.Analyzer,
			File:     relTo(cwd, d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		})
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "pdnlint: encode report: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}

	if len(findings) > 0 {
		fmt.Fprintf(stderr, "pdnlint: %d finding(s) across %d package(s)\n", len(findings), len(pkgs))
		return 1
	}
	return 0
}

// relTo renders path relative to dir when it lies underneath it, which
// keeps -json reports stable across checkouts.
func relTo(dir, path string) string {
	if dir == "" {
		return path
	}
	if rel, err := filepath.Rel(dir, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	all := lint.All()
	if only == "" {
		return all, nil
	}
	byName := make(map[string]*lint.Analyzer, len(all))
	names := make([]string, 0, len(all))
	for _, a := range all {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have: %s)", name, strings.Join(names, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}
