package lint

import (
	"go/ast"

	"gpucluster/internal/lint/analysis"
)

// DebugCheck keeps the redundant-encoding cross-check armed where it
// matters. The scheduler carries one self-verification hook —
// DebugVerifyShadows re-runs the full shadow replay against every
// incremental shadow (index.go) — and a property-style test that
// churns placement and shadows without arming it is only testing half
// of what it could. The rule: any Test function that drives the shared
// propertyConfigs matrix must arm the hook in its body (the
// index_test.go set-and-defer-reset pattern), or carry a justified
// //batchlint:allow debugcheck naming the armed run that already
// covers its matrix.
var DebugCheck = &analysis.Analyzer{
	Name: "debugcheck",
	Doc: "property-style tests over propertyConfigs must arm DebugVerifyShadows " +
		"(or point at the armed run that covers them)",
	Run: runDebugCheck,
}

// debugHook is the arming global.
const debugHook = "DebugVerifyShadows"

// propertyMatrix is the identifier whose use marks a test as
// property-style: the shared policy × preempt × quantum × suspend
// config matrix.
const propertyMatrix = "propertyConfigs"

func runDebugCheck(pass *analysis.Pass) error {
	if !scopePkg(pass.Pkg, batchPkgPath, pass.Analyzer.Name) {
		return nil
	}
	for _, f := range pass.Files {
		if !pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv != nil || len(fd.Name.Name) < 5 || fd.Name.Name[:4] != "Test" {
				continue
			}
			usesMatrix, arms := false, false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if n.Name == propertyMatrix {
						usesMatrix = true
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && id.Name == debugHook {
							arms = true
						}
					}
				}
				return true
			})
			if usesMatrix && !arms {
				pass.Reportf(fd.Pos(), "%s sweeps propertyConfigs without arming DebugVerifyShadows; arm it (set-and-defer-reset, see index_test.go) or justify with //batchlint:allow debugcheck -- <which armed run covers this matrix>", fd.Name.Name)
			}
		}
	}
	return nil
}
