package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpucluster/internal/lint"
	"gpucluster/internal/lint/linttest"
)

// TestRepoClean loads the real scheduler core and transport from
// source, in-package test files included, and runs the full batchlint
// suite: the one way to run it, locally and in CI's lint job. The tree
// must be clean: every rule the fixtures prove also holds on the code
// it was written for, with no false positives, and every in-tree
// //batchlint:allow carries its justification.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the full module from source")
	}
	l := linttest.NewLoader(map[string]string{
		"gpucluster/": filepath.Join("..", ".."),
		"":            filepath.Join("testdata", "src"),
	})
	for _, path := range []string{
		"gpucluster/internal/batch",
		"gpucluster/internal/batch/server",
	} {
		unit, err := l.Load(path, true)
		if err != nil {
			t.Fatalf("%s: load: %v", path, err)
		}
		findings, err := lint.Run(unit, lint.Analyzers())
		if err != nil {
			t.Fatalf("%s: run: %v", path, err)
		}
		for _, f := range findings {
			t.Errorf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
		}
	}
}

// lintSeeded runs the suite over a scratch tree that holds one file,
// internal/batch/seeded.go, under the scheduler core's real import path,
// loaded as TestRepoClean loads the tree.
func lintSeeded(t *testing.T, src string) []lint.Finding {
	t.Helper()
	dir := t.TempDir()
	pkgDir := filepath.Join(dir, "internal", "batch")
	if err := os.MkdirAll(pkgDir, 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkgDir, "seeded.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	l := linttest.NewLoader(map[string]string{"gpucluster/": dir})
	unit, err := l.Load("gpucluster/internal/batch", true)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	findings, err := lint.Run(unit, lint.Analyzers())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return findings
}

// TestSeededViolationFailsVet plants a wall-clock read in the scheduler
// core and checks the gate refuses it with a determinism finding on
// each call: the shape CI's lint job relies on to block a merge.
func TestSeededViolationFailsVet(t *testing.T) {
	findings := lintSeeded(t, `package batch

import "time"

// Wall reads the wall clock inside the scheduler core: batchlint must
// refuse it.
func Wall() time.Duration {
	t0 := time.Now()
	return time.Since(t0)
}
`)
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%d: [%s] %s", f.Pos.Line, f.Analyzer, f.Message))
	}
	if len(got) != 2 || !strings.HasPrefix(got[0], "8: [determinism] time.Now reads the wall clock") ||
		!strings.HasPrefix(got[1], "9: [determinism] time.Since reads the wall clock") {
		t.Errorf("findings:\n%s\nwant a [determinism] wall-clock finding on lines 8 and 9", strings.Join(got, "\n"))
	}
}

// TestSeededViolationAllowed re-runs the seeded tree with a justified
// //batchlint:allow on each read: the escape hatch makes it pass.
func TestSeededViolationAllowed(t *testing.T) {
	findings := lintSeeded(t, `package batch

import "time"

// Wall samples the wall clock for an external gauge.
func Wall() time.Duration {
	t0 := time.Now() //batchlint:allow determinism -- scratch fixture: observation only, never scheduled on
	return time.Since(t0) //batchlint:allow determinism -- closes the sample above
}
`)
	for _, f := range findings {
		t.Errorf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
	}
}
