// Package lint is the project's static-analysis suite: a dependency-free
// (stdlib go/parser, go/ast, go/types) driver that loads the module's
// packages and runs project-specific analyzers enforcing the invariants the
// HILP reproduction's results depend on:
//
//   - ctxfirst: exported Solve*/Sweep*/Batch*/Evaluate* entry points take
//     a context.Context first, so every solve is cancellable.
//   - nodeterm: no wall clock, global math/rand, or map-order-dependent
//     iteration feeding output in the deterministic packages, so run reports
//     and gap certificates stay byte-reproducible (PR 2).
//   - nopanic: every goroutine spawned in the server/sweep/obs layers begins
//     with a deferred recover helper, preserving the panic-isolation ladder
//     (PR 4).
//   - nilsafeobs: hot-path observability types guard nil receivers before
//     field access, keeping the zero-alloc no-op contract (PR 1).
//   - errsilent: the crash-recovery layers never silently discard an I/O
//     error from Sync, Close, Flush, or Write (PR 7).
//
// Alongside the analyzers, schema.go implements the wire-schema
// compatibility gate: a canonical JSON snapshot of internal/wire's exported
// structs, checked so fields are never removed, renamed, re-typed, or
// re-tagged (additions are allowed).
//
// cmd/hilp-lint is the command-line driver; TestWireSchemaCompat (in
// internal/wire) runs the schema gate in-process so plain `go test ./...`
// catches breaking schema edits too.
package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Diagnostic is one finding, addressed by module-relative file position.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Analyzer is one named check over a loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and docs.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run reports the analyzer's findings in the package. Analyzers are
	// responsible for their own package and file scoping (Run is called on
	// every loaded package).
	Run func(p *Package) []Diagnostic
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{CtxFirst, NoDeterm, NoPanic, NilSafeObs, ErrSilent}
}

// RunAll runs every analyzer over every package and returns the findings
// sorted by file, line, column, and analyzer.
func RunAll(pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	for _, p := range pkgs {
		for _, a := range Analyzers() {
			out = append(out, a.Run(p)...)
		}
	}
	SortDiagnostics(out)
	return out
}

// SortDiagnostics orders findings by position, then analyzer, then message.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Report is the machine-readable output of one lint run.
type Report struct {
	// Diagnostics lists every finding in position order.
	Diagnostics []Diagnostic `json:"diagnostics"`
	// Count duplicates len(Diagnostics) for cheap jq-less checks.
	Count int `json:"count"`
}

// WriteJSON renders the findings as one indented JSON report.
func WriteJSON(w io.Writer, ds []Diagnostic) error {
	if ds == nil {
		ds = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Report{Diagnostics: ds, Count: len(ds)})
}

// WriteText renders the findings one per line for humans.
func WriteText(w io.Writer, ds []Diagnostic) error {
	for _, d := range ds {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	return nil
}
