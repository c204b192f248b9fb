package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestNoTestOnlyInternalFuncs fails on an exported package-level
// function in internal/... that no non-test file of this module or of
// perfbench references: such a function is API kept alive only by its
// own tests. The scan is syntactic (go/parser only), so it stays fast:
// a reference is pkg.Name through an import of the declaring package,
// or a bare Name inside the declaring package itself.
//
// Each allowlist entry names a function that stays without a non-test
// caller, with the reason. An entry that no longer exists, or that has
// gained a caller, is stale and fails the test too.
func TestNoTestOnlyInternalFuncs(t *testing.T) {
	allow := map[string]string{
		"parsurf/internal/stats.DominantPeriod":   "TestIntegrationPtCOOscillates measures the Pt(100) CO oscillation period with it",
		"parsurf/internal/ziff.Measure":           "the single-replica ZGB measurement that ziff's poisoning and phase tests and the root BenchmarkZGBPhaseDiagram run",
		"parsurf/internal/store.FailNth":          "fault hook for a Faulty store; the store's torn-write tests inject it",
		"parsurf/internal/store.FailOps":          "fault hook for a Faulty store; the store and job chaos tests inject it",
		"parsurf/internal/job.MaxAttempts":        "retry-budget knob; the job chaos test sets it to quarantine on the first crash",
		"parsurf/internal/fleet.MaxShardAttempts": "quarantine-threshold knob; the fleet's lease-expiry and poison-shard tests set it",
	}
	roots := []moduleRoot{{dir: "../..", path: "parsurf"}, {dir: "../../perfbench", path: "parsurf/perfbench"}}
	unused, stale := testOnlyFuncs(t, roots, "parsurf/internal/", allow)
	for _, name := range unused {
		t.Errorf("%s is exported but only tests call it: delete it, or add it to the allowlist with a reason", name)
	}
	for _, name := range stale {
		t.Errorf("allowlist entry %s is stale: it no longer exists or now has a non-test caller", name)
	}
}

// TestTestOnlyScanFixture runs the scan on testdata/testonly, which
// plants test-only functions next to used, bare-used and allowlisted
// ones, and two stale allowlist entries.
func TestTestOnlyScanFixture(t *testing.T) {
	roots := []moduleRoot{{dir: "testdata/testonly", path: "fixture"}}
	unused, stale := testOnlyFuncs(t, roots, "fixture/internal/", map[string]string{
		"fixture/internal/a.Allowed": "kept for the fixture",
		"fixture/internal/a.Used":    "stale: main calls it",
		"fixture/internal/a.Gone":    "stale: no such function",
	})
	if want := []string{"fixture/internal/a.Planted", "fixture/internal/a.Recursive", "fixture/internal/a.Shadowed"}; !slices.Equal(unused, want) {
		t.Errorf("test-only functions = %q, want %q", unused, want)
	}
	if want := []string{"fixture/internal/a.Gone", "fixture/internal/a.Used"}; !slices.Equal(stale, want) {
		t.Errorf("stale allowlist entries = %q, want %q", stale, want)
	}
}

// moduleRoot is a module directory and its module path.
type moduleRoot struct{ dir, path string }

// parsedPkg is one package directory's non-test files.
type parsedPkg struct {
	path, name string
	files      []*ast.File
}

// testOnlyFuncs returns, sorted, the exported package-level functions
// of packages whose import path starts with prefix that have no
// non-test reference and are not allowlisted, and the allowlist
// entries that are stale.
func testOnlyFuncs(t *testing.T, roots []moduleRoot, prefix string, allow map[string]string) (unused, stale []string) {
	t.Helper()
	var pkgs []*parsedPkg
	for _, r := range roots {
		pkgs = append(pkgs, parseModule(t, r)...)
	}
	names := map[string]string{}  // import path -> package name
	declared := map[string]bool{} // "path.Name"
	for _, p := range pkgs {
		names[p.path] = p.name
		if !strings.HasPrefix(p.path, prefix) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
					declared[p.path+"."+fd.Name.Name] = true
				}
			}
		}
	}
	used := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			imports := map[string]string{} // local name -> import path
			for _, is := range f.Imports {
				path, _ := strconv.Unquote(is.Path.Value)
				local := names[path]
				if is.Name != nil {
					local = is.Name.Name
				}
				imports[local] = path
			}
			for _, d := range f.Decls {
				markUses(d, p.path, imports, used)
			}
		}
	}
	for name := range declared {
		if !used[name] && allow[name] == "" {
			unused = append(unused, name)
		}
	}
	for name := range allow {
		if !declared[name] || used[name] {
			stale = append(stale, name)
		}
	}
	slices.Sort(unused)
	slices.Sort(stale)
	return unused, stale
}

// markUses records in used every "path.Name" that decl references:
// sel.Name through an imported package, or a bare Name of pkgPath.
// Declared names (the function's own name, parameters, fields, vars,
// types) are not references, and neither is a selector's Sel nor a
// function's call of itself.
func markUses(decl ast.Decl, pkgPath string, imports map[string]string, used map[string]bool) {
	self := ""
	if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
		self = fd.Name.Name
	}
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil {
				ast.Inspect(n.Recv, visit)
			}
			ast.Inspect(n.Type, visit)
			if n.Body != nil {
				ast.Inspect(n.Body, visit)
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				used[imports[x.Name]+"."+n.Sel.Name] = true
			}
			ast.Inspect(n.X, visit)
		case *ast.Field:
			ast.Inspect(n.Type, visit)
		case *ast.ValueSpec:
			if n.Type != nil {
				ast.Inspect(n.Type, visit)
			}
			for _, v := range n.Values {
				ast.Inspect(v, visit)
			}
		case *ast.TypeSpec:
			if n.TypeParams != nil {
				ast.Inspect(n.TypeParams, visit)
			}
			ast.Inspect(n.Type, visit)
		case *ast.Ident:
			if n.Name != self {
				used[pkgPath+"."+n.Name] = true
			}
		default:
			return true
		}
		return false
	}
	ast.Inspect(decl, visit)
}

// parseModule parses the non-test .go files of every package under
// r.dir, skipping testdata, hidden directories and nested modules.
func parseModule(t *testing.T, r moduleRoot) []*parsedPkg {
	t.Helper()
	fset := token.NewFileSet()
	byDir := map[string]*parsedPkg{}
	var order []string
	err := filepath.WalkDir(r.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if path != r.dir {
				if base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		p := byDir[dir]
		if p == nil {
			rel, err := filepath.Rel(r.dir, dir)
			if err != nil {
				return err
			}
			p = &parsedPkg{path: r.path, name: f.Name.Name}
			if rel != "." {
				p.path += "/" + filepath.ToSlash(rel)
			}
			byDir[dir] = p
			order = append(order, dir)
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make([]*parsedPkg, len(order))
	for i, dir := range order {
		pkgs[i] = byDir[dir]
	}
	return pkgs
}
