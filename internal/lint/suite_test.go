package lint_test

import (
	"strings"
	"testing"

	"gpucluster/internal/lint"
	"gpucluster/internal/lint/linttest"
)

// The golden fixture suites: each analyzer runs over its fixture
// packages under testdata/src and every finding must line up with a
// want comment — flagged sites, guarded/audited sites that stay quiet,
// and the //batchlint:allow escape hatch (justified allows suppress,
// bare allows are themselves findings).

func TestDeterminism(t *testing.T) {
	linttest.Run(t, lint.Determinism, "determinism")
}

func TestRecorderGuard(t *testing.T) {
	linttest.Run(t, lint.RecorderGuard, "recorderguard")
}

func TestLockHeld(t *testing.T) {
	linttest.Run(t, lint.LockHeld, "lockheld", "lockheldsrv")
}

func TestAccounting(t *testing.T) {
	linttest.Run(t, lint.Accounting, "accounting")
}

// TestAllowMalformed pins the remaining hygiene case want comments
// cannot express: a directive naming no analyzer at all.
func TestAllowMalformed(t *testing.T) {
	l := linttest.NewLoader(map[string]string{"": "testdata/src"})
	unit, err := l.Load("malformedallow", false)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	findings, err := lint.Run(unit, lint.Analyzers())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "malformed batchlint:allow") {
		t.Fatalf("want exactly one malformed-directive finding, got %v", findings)
	}
}
