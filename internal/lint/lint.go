// Package lint is batchlint: the go/analysis-style suite that
// mechanically enforces the scheduler's invariant ledger
// (docs/ARCHITECTURE.md). Every rule here used to live in reviewer
// memory and after-the-fact tests; the analyzers turn them into build
// failures:
//
//   - determinism: no wall clock, no global randomness, no map
//     iteration in the scheduler core — the virtual-time event loop
//     must replay bit for bit.
//   - recorderguard: every recorder hook is dominated by an
//     s.rec != nil check and passes only constant/preallocated
//     details — the pinned zero-alloc nil path.
//   - lockheld: exported Engine methods take e.mu before touching
//     scheduler state, and the server package never drives the
//     Scheduler directly.
//   - accounting: only audited functions may mutate Job.History,
//     charge overhead/lost work, or reserve store-link time — new
//     accounting paths fail the build until audited.
//   - debugcheck: property-style tests over the shared config matrix
//     arm the DebugVerifyShadows cross-check.
//
// A finding can be waived in place with
//
//	//batchlint:allow <analyzer> -- <justification>
//
// on the flagged line or the line above. The justification is
// mandatory: a bare //batchlint:allow is itself a finding, so every
// waiver in the tree documents why the rule does not apply.
//
// The driver is cmd/batchlint, run as a go vet -vettool; see the
// "Static analysis" section of the README.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"gpucluster/internal/lint/analysis"
)

// Import paths of the packages under the ledger's rules. The fixture
// packages under internal/lint/testdata/src use the analyzer's name as
// their path prefix, which scopePkg also admits so the analysistest
// suites exercise the same scope checks.
const (
	batchPkgPath  = "gpucluster/internal/batch"
	serverPkgPath = "gpucluster/internal/batch/server"
)

// Analyzers returns the batchlint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Determinism,
		RecorderGuard,
		LockHeld,
		Accounting,
		DebugCheck,
	}
}

// Finding is one surviving diagnostic: analyzer, resolved position,
// message. The driver prints these in file/line order.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// Unit is one type-checked package as handed to the suite: the shape
// cmd/batchlint reconstructs from a vet config and the test loaders
// build from source.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Run applies the given analyzers to one unit and resolves
// //batchlint:allow directives: a directive with a justification
// suppresses same/next-line findings of the named analyzer, a bare
// directive or one naming an unknown analyzer is reported as a finding
// itself. The returned findings are sorted by position.
func Run(u Unit, analyzers []*analysis.Analyzer) ([]Finding, error) {
	allows := collectAllows(u.Fset, u.Files)
	var out []Finding
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
		}
		var diags []analysis.Diagnostic
		pass.Report = func(d analysis.Diagnostic) { diags = append(diags, d) }
		if err := a.Run(pass); err != nil {
			return nil, err
		}
		for _, d := range diags {
			pos := u.Fset.Position(d.Pos)
			if allows.suppresses(a.Name, pos) {
				continue
			}
			out = append(out, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
		}
		// Directive hygiene rides with the analyzer it names, so a
		// single-analyzer analysistest run still sees its own bare
		// allows.
		for _, d := range allows {
			if d.analyzer != a.Name || d.reason != "" {
				continue
			}
			out = append(out, Finding{Analyzer: a.Name, Pos: u.Fset.Position(d.pos),
				Message: "batchlint:allow needs a justification: //batchlint:allow " + a.Name + " -- <why the rule does not apply here>"})
		}
	}
	// Directives naming no analyzer at all, or one outside the suite,
	// are misspellings that would silently suppress nothing.
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, d := range allows {
		if d.analyzer == "" {
			out = append(out, Finding{Analyzer: "batchlint", Pos: u.Fset.Position(d.pos),
				Message: "malformed batchlint:allow: want //batchlint:allow <analyzer> -- <justification>"})
		} else if !known[d.analyzer] {
			out = append(out, Finding{Analyzer: "batchlint", Pos: u.Fset.Position(d.pos),
				Message: "batchlint:allow names unknown analyzer " + d.analyzer})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// scopePkg reports whether pkg is the named real package or a test
// fixture for the analyzer (fixture import paths start with the
// analyzer's name).
func scopePkg(pkg *types.Package, realPath, analyzerName string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	if p == realPath {
		return true
	}
	return len(p) >= len(analyzerName) && p[:len(analyzerName)] == analyzerName
}
