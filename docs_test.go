package gpucluster

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsResolve reads README.md, docs/*.md and every package comment
// and requires what they name to exist: a back-quoted repository file,
// a Test/Benchmark/Fuzz function, a flag of clusterctl, paperbench or
// lbmsim. A document that outlives the code it describes fails here,
// by name, instead of misleading the next reader.
//
// bench/ is left out, tree and README both: only a benchmark PR may edit
// it (BENCHMARK.json "paths"), so a stale line there is not something
// the PR that made it stale can fix.
func TestDocsResolve(t *testing.T) {
	files, tests := repoIndex(t)
	flags := map[string]map[string]bool{}
	for _, tool := range docTools {
		flags[tool] = toolFlags(t, filepath.Join("cmd", tool))
	}
	anyTool := func(flag string) bool {
		for _, tool := range docTools {
			if flags[tool][flag] {
				return true
			}
		}
		return false
	}
	for name, text := range documents(t) {
		for _, m := range docSpan.FindAllStringSubmatch(text, -1) {
			span := strings.TrimSpace(m[1])
			if docPath.MatchString(span) && !docGenerated[filepath.Base(span)] && !resolves(files, span) {
				t.Errorf("%s: `%s` names no file in the repository", name, span)
			}
			// A span that is one flag, perhaps with its value.
			if f := docBareFlag.FindStringSubmatch(span); f != nil && !docGoFlags[f[1]] && !anyTool(f[1]) {
				t.Errorf("%s: `%s` is a flag of none of %v", name, span, docTools)
			}
		}
		for _, id := range docTestName.FindAllString(text, -1) {
			if !tests[id] {
				t.Errorf("%s: %s is not a test, benchmark or fuzz function of this repository", name, id)
			}
		}
		// Command lines: every -flag after a tool's name, up to the end
		// of the line or of the command.
		for _, line := range strings.Split(text, "\n") {
			for _, tool := range docTools {
				i := strings.Index(line, tool+" ")
				if i < 0 {
					continue
				}
				cmd := line[i+len(tool):]
				if k := strings.IndexAny(cmd, "`|;&#"); k >= 0 {
					cmd = cmd[:k]
				}
				for _, f := range docFlag.FindAllStringSubmatch(cmd, -1) {
					if !flags[tool][f[1]] {
						t.Errorf("%s: %s has no flag -%s: %q", name, tool, f[1], strings.TrimSpace(line))
					}
				}
			}
		}
	}
}

var (
	docTools = []string{"clusterctl", "paperbench", "lbmsim"}
	docSpan  = regexp.MustCompile("`([^`\n]+)`") // a back-quoted span on one line
	// A back-quoted span is a file reference when it is a bare path
	// ending in one of the repository's file types.
	docPath     = regexp.MustCompile(`^[\w./-]+\.(go|md|sh|json|jsonl|yml|swf|txt|conf|mod|ppm)$`)
	docTestName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	docFlag     = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
	docBareFlag = regexp.MustCompile(`^-([a-z][a-z0-9-]*)(?:[ =]\S+)?$`)
	// Flags of the go tool and of the shell commands the documents show
	// beside the repository's own.
	docGoFlags = map[string]bool{"race": true, "fuzz": true, "fuzztime": true, "benchtime": true,
		"bench": true, "benchmem": true, "run": true, "count": true, "short": true, "cpu": true,
		"skip": true, "o": true, "l": true}
	// Files a documented command writes, not files the repository holds.
	docGenerated = map[string]bool{"run.json": true, "plume.ppm": true, "streamlines.ppm": true}
)

// documents returns the text of README.md, docs/*.md and the package
// comment of every Go package outside bench/, by name.
func documents(t *testing.T) map[string]string {
	docs := map[string]string{}
	md, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range append(md, "README.md") {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(b)
	}
	walkGo(t, func(path string) {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if f.Doc != nil {
			docs[path+" (package comment)"] = f.Doc.Text()
		}
	})
	return docs
}

// walkGo calls fn for every .go file of the repository outside bench/
// and testdata.
func walkGo(t *testing.T, fn func(path string)) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			fn(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// repoIndex lists every file of the repository by slash path and every
// top-level Test, Benchmark and Fuzz function of its _test.go files,
// bench/ included: the documents may point into the benchmark, they
// just are not checked when they live there.
func repoIndex(t *testing.T) (files []string, tests map[string]bool) {
	tests = map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		files = append(files, filepath.ToSlash(path))
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && docTestName.MatchString(fd.Name.Name) {
				tests[fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, tests
}

// resolves reports whether span names a repository file: by its path
// from the root, or — the documents say `sched.go` and
// `batch/sched.go` where the package is plain from the context — by the
// tail of one.
func resolves(files []string, span string) bool {
	span = strings.TrimPrefix(filepath.ToSlash(span), "./")
	for _, f := range files {
		if f == span || strings.HasSuffix(f, "/"+span) {
			return true
		}
	}
	return false
}

// toolFlags returns the names a command registers on a flag set,
// subcommands' included: the string literal in first place of a call to
// a flag-defining method (Int, Bool, ...), in second place of its Var
// form.
func toolFlags(t *testing.T, dir string) map[string]bool {
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{"Bool": true, "Int": true, "Int64": true, "Float64": true,
		"String": true, "Duration": true, "Func": true}
	names := map[string]bool{}
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			at := 0
			kind := sel.Sel.Name
			if strings.HasSuffix(kind, "Var") {
				kind, at = strings.TrimSuffix(kind, "Var"), 1
			}
			if kinds[kind] && len(call.Args) > at {
				if lit, ok := call.Args[at].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					names[strings.Trim(lit.Value, "\"`")] = true
				}
			}
			return true
		})
	}
	if len(names) == 0 {
		t.Fatalf("%s registers no flags: the extraction has gone stale", dir)
	}
	return names
}
