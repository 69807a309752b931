package repro

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// readmeDocs are the documents whose command lines a reader copies.
var readmeDocs = []string{"README.md", ".claude/skills/verify/SKILL.md"}

var (
	citedExperiment = regexp.MustCompile("ftrsim -exp ([A-Za-z0-9_.]+)")
	citedGoRun      = regexp.MustCompile("go run ([^\\s`]+)")
	citedHeadline   = regexp.MustCompile(`BENCH_[A-Za-z0-9_]+\.json`)
)

// TestReadmeCitesWhatExists fails when a document cites an experiment
// id that is not registered, a `go run` path that is not a main package
// of this module (a `go run <tool>@<version>` line is exempt), or a
// BENCH_*.json that no experiment writes.
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
		text := string(raw)
		for _, m := range citedExperiment.FindAllStringSubmatch(text, -1) {
			if id := strings.TrimRight(m[1], "."); !ids[id] {
				t.Errorf("%s cites ftrsim -exp %s, which is not in experiments.IDs()", doc, id)
			}
		}
		for _, m := range citedGoRun.FindAllStringSubmatch(text, -1) {
			if p := m[1]; !strings.Contains(p, "@") && !isMainPackage(p) {
				t.Errorf("%s cites go run %s, which is not a main package of the module", doc, p)
			}
		}
		for _, name := range citedHeadline.FindAllString(text, -1) {
			if !files[name] {
				t.Errorf("%s cites %s, which no experiment's headline writes", doc, name)
			}
		}
	}
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
