package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// readmeDocs are the documents whose command lines, experiment ids and
// package paths a reader copies: README, the verify skill, ftrsim's
// usage comment, the module's and the load layer's package docs.
var readmeDocs = []string{
	"README.md", ".claude/skills/verify/SKILL.md", "cmd/ftrsim/main.go", "doc.go", "internal/load/doc.go",
}

var (
	citedExperiment = regexp.MustCompile("ftrsim -exp ([A-Za-z0-9_.]+)")
	citedGoRun      = regexp.MustCompile("go run ([^\\s`]+)")
	citedHeadline   = regexp.MustCompile(`BENCH_[A-Za-z0-9_]+\.json`)
	citedPackage    = regexp.MustCompile(`\binternal/[a-z][a-z0-9]*`)
	// citedID is an experiment id in backticks, or a family of them
	// (`ext.pit.*`, `fig6*.d2`).
	citedID = regexp.MustCompile("`((?:ext|table1|ablation)\\.[a-z0-9.*]+|fig[0-9a-z.*]*)`")
)

// TestReadmeCitesWhatExists fails when a document cites an experiment
// id that is not registered (on an ftrsim command line, or in backticks
// in prose; a family with a `*` must match at least one id), a `go run`
// path that is not a main package of this module (a `go run
// <tool>@<version>` line is exempt), an internal/<pkg> directory that
// does not exist, or a BENCH_*.json that no experiment writes.
func TestReadmeCitesWhatExists(t *testing.T) {
	ids := map[string]bool{}
	files := map[string]bool{}
	for _, id := range experiments.IDs() {
		ids[id] = true
		e, _ := experiments.Get(id)
		if e.Headline != nil {
			files[e.Headline.File] = true
		}
	}
	for _, doc := range readmeDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			at := fmt.Sprintf("%s:%d", doc, i+1)
			for _, m := range citedExperiment.FindAllStringSubmatch(line, -1) {
				if id := strings.TrimRight(m[1], "."); !ids[id] {
					t.Errorf("%s cites ftrsim -exp %s, which is not in experiments.IDs()", at, id)
				}
			}
			for _, m := range citedID.FindAllStringSubmatch(line, -1) {
				if !ids[m[1]] && !matchesAny(m[1], ids) {
					t.Errorf("%s cites `%s`, which names no id in experiments.IDs()", at, m[1])
				}
			}
			for _, m := range citedGoRun.FindAllStringSubmatch(line, -1) {
				if p := m[1]; !strings.Contains(p, "@") && !isMainPackage(p) {
					t.Errorf("%s cites go run %s, which is not a main package of the module", at, p)
				}
			}
			for _, dir := range citedPackage.FindAllString(line, -1) {
				if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
					t.Errorf("%s cites %s, which is not a directory of the module", at, dir)
				}
			}
			for _, name := range citedHeadline.FindAllString(line, -1) {
				if !files[name] {
					t.Errorf("%s cites %s, which no experiment's headline writes", at, name)
				}
			}
		}
	}
}

// TestReadmeQuickstartIsExecuted fails unless every line of README's
// ```go quickstart block appears, in order, in the source of
// Example_quickstart, whose pinned output `go test` checks: the
// quickstart a reader copies is code that runs.
func TestReadmeQuickstartIsExecuted(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(raw), "```go\n")
	if !ok {
		t.Fatal("README.md has no ```go block")
	}
	block, _, _ = strings.Cut(block, "```")

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "example_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := os.ReadFile("example_test.go")
	var body []string
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "Example_quickstart" {
			from, to := fset.Position(fn.Pos()).Offset, fset.Position(fn.End()).Offset
			body = strings.Split(string(src[from:to]), "\n")
		}
	}
	if body == nil {
		t.Fatal("example_test.go has no Example_quickstart")
	}
	next := 0
	for _, line := range strings.Split(block, "\n") {
		want := strings.TrimSpace(line)
		if want == "" {
			continue
		}
		for next < len(body) && strings.TrimSpace(body[next]) != want {
			next++
		}
		if next == len(body) {
			t.Errorf("README quickstart line %q is not in Example_quickstart after the lines before it", want)
			return
		}
		next++
	}
}

// matchesAny reports whether the family pattern, a path.Match glob,
// matches at least one id.
func matchesAny(pattern string, ids map[string]bool) bool {
	for id := range ids {
		if ok, _ := path.Match(pattern, id); ok {
			return true
		}
	}
	return false
}

// isMainPackage reports whether dir, a "./"-relative path, holds a
// non-test Go file of package main.
func isMainPackage(dir string) bool {
	if !strings.HasPrefix(dir, "./") {
		return false
	}
	names, _ := filepath.Glob(filepath.Join(filepath.FromSlash(dir), "*.go"))
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.PackageClauseOnly)
		if err == nil && f.Name.Name == "main" {
			return true
		}
	}
	return false
}
