package repro

// The dead-surface sweep (ROADMAP item 6e): everything lives under
// internal/, so an exported name nothing outside its own package's
// _test.go files mentions is dead by construction. The scan is
// syntactic — go/parser only, no type information — which makes it
// conservative for methods: a method counts as referenced when any
// selector anywhere carries its name, whatever the receiver.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportedAllow lists the exported names the sweep leaves alone, each
// with the reason it stays. Keys are "<package dir>.<Name>" or
// "<package dir>.<Type>.<Method>".
var exportedAllow = map[string]string{
	"internal/chain.AggregateRun":               "aggregate-chain surface: ROADMAP item 14(d) decides whether internal/chain earns its place",
	"internal/chain.BoundaryPoints":             "aggregate-chain surface (Lemma 7's β set): ROADMAP item 14(d)",
	"internal/chain.BernoulliDist.ExpectedSize": "aggregate-chain surface (Lemma 6's E|∆|): ROADMAP item 14(d)",
	"internal/analysis.Lemma1Integral":          "the paper's Lemma 1 as a formula: ROADMAP item 14(a) decides whether the exact oracle uses it",
	"internal/analysis.AsymptoticLowerBound":    "Theorem 10's bound: ROADMAP item 3a gates measured hops against it",
	"internal/analysis.SingleLinkExpectedDrop":  "Lemma 3's drop: ROADMAP item 14(a), the exact oracle",
}

// exportedAllowDirs lists whole packages outside the sweep.
var exportedAllowDirs = map[string]string{
	"internal/proptest": "exists to serve other packages' tests; its own tests are its only other caller",
}

// implicitMethods are called through standard-library interfaces
// (fmt.Stringer, error), never through a selector the scan could see.
var implicitMethods = map[string]bool{"String": true, "Error": true}

type goFile struct {
	dir     string // slash-separated, relative to the module root
	test    bool
	imports map[string]string // local name -> package dir, for repro/... imports
	ast     *ast.File
}

// TestExportedNamesAreReferenced fails when an exported top-level name
// or method under internal/ is referenced neither from a non-test file
// nor from another package's test.
func TestExportedNamesAreReferenced(t *testing.T) {
	files := parseModule(t)

	// A reference is vouched for by its user: "" for a non-test file,
	// the file's own directory for a test — which then counts for every
	// package but that one. qualified["dir.name"] holds the users that
	// say alias.name of package dir; selected[name] those that select
	// .name off anything else (a method or field, receiver unknown);
	// local[dir][name] marks a bare identifier in dir's non-test files
	// other than the declaration itself.
	qualified := map[string]map[string]bool{}
	selected := map[string]map[string]bool{}
	local := map[string]map[string]bool{}
	mark := func(m map[string]map[string]bool, k, v string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][v] = true
	}
	for _, f := range files {
		user := ""
		if f.test {
			user = f.dir
		}
		declared := map[*ast.Ident]bool{}
		for _, d := range f.ast.Decls {
			for _, id := range declIdents(d) {
				declared[id] = true
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && f.imports[x.Name] != "" {
					mark(qualified, f.imports[x.Name]+"."+n.Sel.Name, user)
					return false
				}
				mark(selected, n.Sel.Name, user)
			case *ast.Ident:
				if !f.test && !declared[n] {
					mark(local, f.dir, n.Name)
				}
			}
			return true
		})
	}
	usedOutsideOwnTests := func(users map[string]bool, dir string) bool {
		for user := range users {
			if user != dir {
				return true
			}
		}
		return false
	}

	dead := map[string]bool{}
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") || exportedAllowDirs[f.dir] != "" {
			continue
		}
		for _, d := range f.ast.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil {
				name := fn.Name.Name
				if fn.Name.IsExported() && !implicitMethods[name] && !usedOutsideOwnTests(selected[name], f.dir) {
					dead[f.dir+"."+recvName(fn)+"."+name] = true
				}
				continue
			}
			for _, id := range declIdents(d) {
				key := f.dir + "." + id.Name
				if id.IsExported() && !local[f.dir][id.Name] && !usedOutsideOwnTests(qualified[key], f.dir) {
					dead[key] = true
				}
			}
		}
	}
	var report []string
	for key := range dead {
		if exportedAllow[key] == "" {
			report = append(report, key+" is exported but referenced only from its own package's tests: delete it, unexport it, or allow-list it with a reason")
		}
	}
	for key := range exportedAllow {
		if !dead[key] {
			report = append(report, "allow-list entry "+key+" is referenced (or gone) now: remove the entry")
		}
	}
	sort.Strings(report)
	for _, line := range report {
		t.Error(line)
	}
}

// parseModule parses every .go file of the root module and of ftrmark/
// (a module of its own that imports repro/internal/...).
func parseModule(t *testing.T) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		parsed, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		f := goFile{
			dir:     filepath.ToSlash(filepath.Dir(p)),
			test:    strings.HasSuffix(p, "_test.go"),
			imports: map[string]string{},
			ast:     parsed,
		}
		for _, imp := range parsed.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(ipath, "repro/")
			if !ok {
				continue
			}
			name := path.Base(dir)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			f.imports[name] = dir
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// declIdents returns the identifiers a top-level declaration
// introduces (none for a method: methods are keyed by receiver).
func declIdents(d ast.Decl) []*ast.Ident {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return []*ast.Ident{d.Name}
		}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
		return ids
	}
	return nil
}

// recvName returns the receiver's type name, stripped of pointer and
// type parameters.
func recvName(fn *ast.FuncDecl) string {
	e := fn.Recv.List[0].Type
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// optionAllow lists the option fields TestOptionFieldsAreSet leaves
// alone although no program sets them, each with the reason it stays.
// Keys are "<package dir>.<Type>.<Field>".
var optionAllow = map[string]string{
	"internal/route.Options.MaxReroutes": "internal/regress TestSeededPipelineGolden pins the ideal-ring/reroute rows at MaxReroutes 3",
	"internal/load.Config.ReplicaSeed":   "internal/regress TestAllReplicasDeadFallbackGolden kills the replicas of the placement that ReplicaSeed seeds",
}

// TestOptionFieldsAreSet fails on an exported field of an options
// struct under internal/ (a type named *Config, *Options, *Spec or
// Params) that no non-test file of the root module or ftrmark/ sets,
// either as a composite-literal key or by an assignment outside a
// withDefaults method: a field with one value in use is a constant.
// Like the export sweep, the scan is syntactic and keyed by field name
// alone, so a field set under the same name on another type counts as
// set — it cannot see load.SweepConfig.P99Bound beside
// load.SweepResult.P99Bound, nor engine.ChurnConfig.Events beside
// telemetry.SchedStats.Events.
func TestOptionFieldsAreSet(t *testing.T) {
	files := parseModule(t)
	set := map[string]bool{}
	for _, f := range files {
		if f.test {
			continue
		}
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			defaults := ok && fn.Recv != nil && fn.Name.Name == "withDefaults"
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								set[id.Name] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && !defaults {
							set[sel.Sel.Name] = true
						}
					}
				}
				return true
			})
		}
	}

	unset := map[string]bool{}
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !isOptionType(ts.Name.Name) {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						if id.IsExported() && !set[id.Name] {
							unset[f.dir+"."+ts.Name.Name+"."+id.Name] = true
						}
					}
				}
			}
		}
	}
	var report []string
	for key := range unset {
		if optionAllow[key] == "" {
			report = append(report, key+" is set by no program: make it a constant, or allow-list it with a reason")
		}
	}
	for key := range optionAllow {
		if !unset[key] {
			report = append(report, "allow-list entry "+key+" is set by a program (or gone) now: remove the entry")
		}
	}
	sort.Strings(report)
	for _, line := range report {
		t.Error(line)
	}
}

func isOptionType(name string) bool {
	return name == "Params" || strings.HasSuffix(name, "Config") ||
		strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Spec")
}
