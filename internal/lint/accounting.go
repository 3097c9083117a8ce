package lint

import (
	"go/ast"

	"gpucluster/internal/lint/analysis"
)

// Accounting guards the ledger's central balance — busy ≡ work +
// overhead + lost-work, exact to the tick (docs/ARCHITECTURE.md
// "Invariants") — by pinning WHO may move the books. Three kinds of
// mutation are monitored in the scheduler core:
//
//   - writes to Job.History (the banked-progress segments the balance
//     is reconstructed from),
//   - writes to the overhead/lostWork charge fields, the run's
//     Counters.LostWork total and the JobTotals.CheckpointOverhead sum
//     that terminal jobs' charges are folded into (the one copy left of
//     a job's overhead once the scheduler has retired it),
//   - reservations and releases on the duplex store-link timelines
//     (reserveWrite/reserveRead/releaseRead).
//
// Any function performing one of these must be in the audited
// allowlist below. A new accounting path therefore fails the build
// until someone re-derives the balance for it and adds the function —
// the audit PRs 5–9 each did by hand, mechanized.
var Accounting = &analysis.Analyzer{
	Name: "accounting",
	Doc: "only audited functions may mutate Job.History, charge overhead/lost work, " +
		"or touch the store-link timelines (busy ≡ work + overhead + lost-work)",
	Run: runAccounting,
}

// auditedAccounting is the allowlist: every function that currently
// moves the books, each audited against the balance by the pinning
// suites (property_test.go, cancel_test.go, fault_test.go). Adding a
// name here is a statement that the new path keeps
// busy ≡ work + overhead + lost-work exact — say why in the PR.
var auditedAccounting = map[string]bool{
	"Scheduler.Submit":          true, // resets History/charges for a fresh (or replayed) job
	"Scheduler.tryStart":        true, // restore prefix charge + read-link reservation + migration write leg
	"Scheduler.endSegment":      true, // closes a run segment: completion, drain, fault, cancel or bank
	"Scheduler.beginCheckpoint": true, // host drain charge
	"Scheduler.bookDrain":       true, // store drain charge + write-link reservation (preemption, slice, bank)
	"Scheduler.refundRestore":   true, // interrupted segment: mid-restore overhead and read-slot refund
	"Scheduler.loseProgress":    true, // fault-killed segment: elapsed work becomes lost work
	"Scheduler.failGang":        true, // fault kill: lost tail, drain refund
	"Scheduler.demote":          true, // eviction write-link reservation
	"JobTotals.fold":            true, // a terminal job's overhead joins the report sum, at report time or at retirement
}

// accountingFields are the Job/Scheduler fields whose writes are
// monitored: lostWork is the job's share, LostWork the run's total in
// the scheduler's Counters, CheckpointOverhead the sum of terminal
// jobs' overhead in its JobTotals.
var accountingFields = map[string]bool{"History": true, "overhead": true, "lostWork": true, "LostWork": true, "CheckpointOverhead": true}

// linkMutators are the storeLink methods that move a timeline.
var linkMutators = map[string]bool{"reserveWrite": true, "reserveRead": true, "releaseRead": true}

func runAccounting(pass *analysis.Pass) error {
	if !scopePkg(pass.Pkg, batchPkgPath, pass.Analyzer.Name) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := qualifiedName(fd)
			if auditedAccounting[name] {
				continue
			}
			// linksim.go's storeLink methods own their internal state;
			// the monitored surface is everyone reserving through them.
			if recv, _ := splitRecv(name); recv == "storeLink" {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if field, ok := monitoredField(lhs); ok {
							pass.Reportf(lhs.Pos(), "%s mutates the accounting ledger (.%s) but is not in the audited allowlist (internal/lint/accounting.go); re-derive busy ≡ work + overhead + lost-work for this path and add it", name, field)
						}
					}
				case *ast.IncDecStmt:
					if field, ok := monitoredField(n.X); ok {
						pass.Reportf(n.Pos(), "%s mutates the accounting ledger (.%s) but is not in the audited allowlist (internal/lint/accounting.go); re-derive busy ≡ work + overhead + lost-work for this path and add it", name, field)
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && linkMutators[sel.Sel.Name] {
						pass.Reportf(n.Pos(), "%s moves a store-link timeline (%s) but is not in the audited allowlist (internal/lint/accounting.go); link time is charged overhead — audit the balance and add it", name, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
	return nil
}

// monitoredField reports whether an assignment target is a selection
// of a monitored accounting field.
func monitoredField(lhs ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok || !accountingFields[sel.Sel.Name] {
		return "", false
	}
	return sel.Sel.Name, true
}

// qualifiedName renders a function's allowlist key: "Recv.Name" for
// methods, "Name" for plain functions.
func qualifiedName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// splitRecv splits a qualified name into receiver and method.
func splitRecv(name string) (recv, method string) {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i], name[i+1:]
		}
	}
	return "", name
}
