// Package linttest is the offline analysistest: it loads fixture
// packages from testdata/src (or real repo packages by import path)
// with pure go/parser + go/types — std imports are type-checked from
// GOROOT source, so no export data or network is needed — runs
// batchlint analyzers over them, and matches findings against
// analysistest-style expectation comments:
//
//	x := time.Now() // want "wall clock"
//	//batchlint:allow determinism // want "needs a justification"
//
// A want comment carries one or more quoted (or backquoted) regular
// expressions; each must match exactly one finding reported on the
// comment's line, and every finding must be wanted.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"gpucluster/internal/lint"
	"gpucluster/internal/lint/analysis"
)

// Loader resolves import paths to source directories and type-checks
// them recursively, caching by path. Standard-library imports fall
// through to the source importer.
type Loader struct {
	fset  *token.FileSet
	roots map[string]string // import-path prefix -> directory
	std   types.ImporterFrom
	pkgs  map[string]*loaded
}

type loaded struct {
	err  error
	unit lint.Unit
}

// NewLoader builds a loader. roots maps import-path prefixes to
// directories: {"gpucluster/": "../..", "": "testdata/src"} resolves
// module packages into the repo tree and bare paths into fixtures.
func NewLoader(roots map[string]string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset:  fset,
		roots: roots,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:  make(map[string]*loaded),
	}
}

// Load type-checks the package at the import path. includeTests also
// parses in-package _test.go files into the unit; transitive imports
// never include tests.
func (l *Loader) Load(path string, includeTests bool) (lint.Unit, error) {
	dir, ok := l.resolve(path)
	if !ok {
		return lint.Unit{}, fmt.Errorf("import path %q resolves to no configured root", path)
	}
	return l.loadDir(path, dir, includeTests)
}

// resolve maps an import path to a directory via the longest matching
// root prefix, requiring the directory to exist.
func (l *Loader) resolve(path string) (string, bool) {
	best, bestDir := -1, ""
	for prefix, dir := range l.roots {
		if strings.HasPrefix(path, prefix) && len(prefix) > best {
			best, bestDir = len(prefix), filepath.Join(dir, filepath.FromSlash(path[len(prefix):]))
		}
	}
	if best < 0 {
		return "", false
	}
	if st, err := os.Stat(bestDir); err != nil || !st.IsDir() {
		return "", false
	}
	return bestDir, true
}

func (l *Loader) loadDir(path, dir string, includeTests bool) (lint.Unit, error) {
	cacheKey := path
	if includeTests {
		cacheKey += " [test]"
	}
	if p, ok := l.pkgs[cacheKey]; ok {
		return p.unit, p.err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return lint.Unit{}, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, filepath.Join(dir, name))
	}
	sort.Strings(names)
	pkgName := ""
	for _, fname := range names {
		f, err := parser.ParseFile(l.fset, fname, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return lint.Unit{}, err
		}
		// The unit is the package plus its in-package test files;
		// external _test packages are separate units and skipped here.
		if pkgName == "" && !strings.HasSuffix(f.Name.Name, "_test") {
			pkgName = f.Name.Name
		}
		files = append(files, f)
	}
	kept := files[:0]
	for _, f := range files {
		if f.Name.Name == pkgName {
			kept = append(kept, f)
		}
	}
	files = kept
	if len(files) == 0 {
		return lint.Unit{}, fmt.Errorf("no Go files for %q in %s", path, dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	pkg, err := conf.Check(path, l.fset, files, info)
	unit := lint.Unit{Fset: l.fset, Files: files, Pkg: pkg, Info: info}
	l.pkgs[cacheKey] = &loaded{unit: unit, err: err}
	return unit, err
}

// loaderImporter adapts the loader to types.Importer: module/fixture
// paths load from source directories, everything else (std) goes to
// the source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if dir, ok := l.resolve(path); ok {
		unit, err := l.loadDir(path, dir, false)
		if err != nil {
			return nil, err
		}
		return unit.Pkg, nil
	}
	return l.std.Import(path)
}

// Run loads each fixture package from testdata/src and checks the
// analyzer's findings against the fixtures' want comments.
func Run(t *testing.T, a *analysis.Analyzer, fixtures ...string) {
	t.Helper()
	l := NewLoader(map[string]string{"": filepath.Join("testdata", "src")})
	for _, fixture := range fixtures {
		unit, err := l.Load(fixture, true)
		if err != nil {
			t.Errorf("%s: load: %v", fixture, err)
			continue
		}
		findings, err := lint.Run(unit, []*analysis.Analyzer{a})
		if err != nil {
			t.Errorf("%s: run: %v", fixture, err)
			continue
		}
		checkWants(t, unit, findings)
	}
}

// expectation is one parsed want regexp.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	used bool
}

var wantRe = regexp.MustCompile("want((?:\\s+(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`))+)")
var wantArgRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// checkWants matches findings against want comments: every finding
// must be wanted, every want must fire exactly once.
func checkWants(t *testing.T, unit lint.Unit, findings []lint.Finding) {
	t.Helper()
	var wants []*expectation
	for _, f := range unit.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := unit.Fset.Position(c.Pos())
				for _, arg := range wantArgRe.FindAllString(m[1], -1) {
					pat := arg[1 : len(arg)-1]
					if arg[0] == '"' {
						if uq, err := strconv.Unquote(arg); err == nil {
							pat = uq
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, arg, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: pat})
				}
			}
		}
	}
	for _, fd := range findings {
		matched := false
		for _, w := range wants {
			if !w.used && w.file == fd.Pos.Filename && w.line == fd.Pos.Line && w.re.MatchString(fd.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding at %s: [%s] %s", fd.Pos, fd.Analyzer, fd.Message)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.raw)
		}
	}
}
