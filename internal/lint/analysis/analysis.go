// Package analysis is a minimal, dependency-free subset of the
// golang.org/x/tools/go/analysis API, just large enough to host the
// batchlint analyzers (internal/lint). The repo builds with no module
// dependencies — the real x/tools framework cannot be vendored — so
// this package mirrors its shape (Analyzer, Pass, Diagnostic). Analyzers
// written against this package port to the real framework by swapping
// the import and the Run signature.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check: a name (used in diagnostics and
// in //batchlint:allow directives), documentation, and the Run
// function applied to each type-checked package unit.
type Analyzer struct {
	// Name identifies the analyzer. It must be a valid Go identifier;
	// //batchlint:allow directives reference it.
	Name string
	// Doc is the one-paragraph description quoted in
	// docs/ARCHITECTURE.md.
	Doc string
	// Run applies the check to one unit, reporting findings through
	// pass.Report. A non-nil error aborts the whole run (reserved for
	// internal failures, not findings).
	Run func(*Pass) error
}

// Pass carries one type-checked package unit through an analyzer. The
// same unit (shared FileSet, Files, type info) is handed to every
// analyzer in the suite.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions for every file in the unit.
	Fset *token.FileSet
	// Files are the parsed files of the unit, including in-package
	// _test.go files when the unit was built for a test.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the Types/Defs/Uses/Selections maps for Files.
	TypesInfo *types.Info
	// Report delivers one finding. lint.Run wires suppression
	// (//batchlint:allow) behind it.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether f came from a _test.go file.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Package).Filename, "_test.go")
}

// FileName returns the base name of the file f was parsed from.
func (p *Pass) FileName(f *ast.File) string {
	name := p.Fset.Position(f.Package).Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name
}
