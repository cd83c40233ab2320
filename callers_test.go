package cicero_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledAllowed lists the exported identifiers under internal/ that
// may keep no caller outside _test.go files, each with its reason. An
// entry that gains a caller, or stops existing, fails the test too, so
// the list only ever names what is really uncalled.
var uncalledAllowed = map[string]string{
	// Fixtures: cluster's fault, breaker and failover tests drive the
	// router through them.
	"cluster.NewFakeClock":             "fixture: deterministic clock for the breaker and backoff tests",
	"cluster.FakeClock.Advance":        "fixture: deterministic clock for the breaker and backoff tests",
	"cluster.FakeClock.SetAutoAdvance": "fixture: deterministic clock for the breaker and backoff tests",
	"cluster.FakeClock.Sleepers":       "fixture: deterministic clock for the breaker and backoff tests",
	"cluster.NewFaultInjector":         "fixture: per-node transport faults for the failover tests",
	"cluster.FaultInjector.Set":        "fixture: per-node transport faults for the failover tests",
	"cluster.FaultInjector.Clear":      "fixture: per-node transport faults for the failover tests",
	"cluster.FaultInjector.SetClock":   "fixture: per-node transport faults for the failover tests",

	// References: independent implementations the oracles compare the
	// production path against.
	"relalg.ExactPlan":                 "reference: relational-algebra plan of solver E (relalg_test)",
	"relalg.GreedyPlan":                "reference: relational-algebra plan of the greedy solvers (relalg_test)",
	"relalg.Table.ArgMaxFloat":         "reference: operator of the relational-algebra plans (relalg_test)",
	"relalg.Table.Select":              "reference: operator of the relational-algebra plans (relalg_test)",
	"engine.Query.SubsetOf":            "reference: the linear-scan matcher the store-lookup oracle holds engine.Index to",
	"engine.SolveProblem":              "reference: the sequential batch the pipeline's parallel-equals-sequential oracle compares with",
	"voice.Extractor.Extract":          "reference: held to the string-scanning extractor by the classification oracle",
	"voice.Extractor.ExtractDimension": "reference: held to the string-scanning extractor by the classification oracle",

	// Test hooks: surface that lets tests in other packages see inside.
	"httpserve.NewWithBackend": "test hook: mounts a fake backend; bench/bench_test.go compiles against it",
	"engine.Store.Frozen":      "test hook: pipeline, snapshot and serve tests assert the store they got is sealed",

	// Serving from the snapshot alone (ROADMAP.md, item 2) builds on it.
	"snapshot.MapBytes": "planned: maps an in-memory snapshot for snapshot-only serving; FuzzMapBytes drives it",
}

// TestEveryInternalExportHasACaller type-checks every non-test package
// of the module and fails on an exported identifier under internal/
// that nothing outside a _test.go file references: surface that only
// tests drive is deleted, not left standing. A method counts as called
// when its type satisfies an interface that has it (the call may be
// dynamic), and a use of a generic function or type's instance counts
// for its declaration.
func TestEveryInternalExportHasACaller(t *testing.T) {
	var problems []string
	uncalled := uncalledExports(t)
	for _, name := range uncalled {
		if _, ok := uncalledAllowed[name]; !ok {
			problems = append(problems, name+": no caller outside _test.go files; delete it or allowlist it with a reason")
		}
	}
	for name := range uncalledAllowed {
		if i := sort.SearchStrings(uncalled, name); i == len(uncalled) || uncalled[i] != name {
			problems = append(problems, name+": allowlisted but has a caller or no longer exists; drop the entry")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// uncalledExports returns, sorted, the exported functions, methods,
// constants, variables and types declared under internal/ that no
// non-test file of the module references. Names read
// "pkg.Name" or "pkg.Type.Method", pkg relative to internal/.
func uncalledExports(t *testing.T) []string {
	t.Helper()
	// -deps lists every package after its dependencies, so each module
	// package is checked after the ones it imports; the standard
	// library is read from its compiled export data.
	out, err := exec.Command("go", "list", "-deps", "-export",
		"-f", "{{.ImportPath}}\t{{.Standard}}\t{{.Export}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	mod := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := mod[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		path, dir := f[0], f[3]
		if f[1] == "true" {
			exports[path] = f[2]
			continue
		}
		var files []*ast.File
		for _, name := range strings.Fields(f[4]) {
			file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, file)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		mod[path] = pkg
		for _, file := range files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					markUses(d, funcOwner(d, info), info, used)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var self types.Object
						if ts, ok := spec.(*ast.TypeSpec); ok {
							self = info.Defs[ts.Name]
						}
						markUses(spec, self, info, used)
					}
				}
			}
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}

	// Every interface a method could be called through: the ones the
	// module spells out, plus every named one in the packages it
	// reaches (fmt.Stringer, json.Marshaler, ... are called by
	// reflection, never named).
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range mod {
		walk(p)
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	satisfies := func(m *types.Func, recv types.Type) bool {
		for _, it := range ifaces {
			if !it.IsMethodSet() {
				continue
			}
			if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); obj == nil {
				continue
			}
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	var uncalled []string
	for path, pkg := range mod {
		rel, ok := strings.CutPrefix(path, "cicero/internal/")
		if !ok {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				uncalled = append(uncalled, rel+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() || used[m] {
					continue
				}
				if named.TypeParams() == nil && satisfies(m, named) {
					continue
				}
				uncalled = append(uncalled, fmt.Sprintf("%s.%s.%s", rel, name, m.Name()))
			}
		}
	}
	sort.Strings(uncalled)
	return uncalled
}

// markUses records every object node references, generic instances
// as their declaration, except self: a reference from inside an
// object's own declaration does not count, so a recursive function, or
// a type named only by its own methods, has no caller.
func markUses(node ast.Node, self types.Object, info *types.Info, used map[types.Object]bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if obj != nil && obj != self {
			used[obj] = true
		}
		return true
	})
}

// funcOwner returns the object a function declaration belongs to: the
// function itself, or a method's receiver type.
func funcOwner(d *ast.FuncDecl, info *types.Info) types.Object {
	if d.Recv == nil {
		return info.Defs[d.Name]
	}
	recv := d.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	switch r := recv.(type) {
	case *ast.IndexExpr:
		recv = r.X
	case *ast.IndexListExpr:
		recv = r.X
	}
	return info.Uses[recv.(*ast.Ident)]
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
