package tarm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// ctxlessTwinsAllowed lists the only exported F that may sit beside an
// F+"Context" twin. Executor.Exec is pinned by benchmark/ (which calls
// it), and all three predate the one-spelling rule and are out of its
// PR's scope; a new twin needs a deliberate edit here.
var ctxlessTwinsAllowed = map[string]bool{
	"tml.Executor.Exec": true,
	"tml.Session.Exec":  true,
	"apriori.Mine":      true,
}

// qualifiedName spells a declaration "pkg.Name" or "pkg.Recv.Name".
func qualifiedName(pkg string, fn *ast.FuncDecl) string {
	name := pkg + "."
	if fn.Recv != nil {
		recv := fn.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if idx, ok := recv.(*ast.IndexExpr); ok { // generic receiver T[P]
			recv = idx.X
		}
		name += recv.(*ast.Ident).Name + "."
	}
	return name + fn.Name.Name
}

// TestOneSpellingPerEntryPoint is the surface guard: in the mining
// packages and the facade, a context-taking function is the only
// spelling of its behaviour — no exported F next to FContext on the same
// receiver — and internal/core exports nothing ending in "FromTable"
// (the operator is XFromTableContext; the ctx-less form is facade sugar
// under the task's bare name).
func TestOneSpellingPerEntryPoint(t *testing.T) {
	for pkg, pattern := range map[string]string{
		"core":    "internal/core/*.go",
		"tml":     "internal/tml/*.go",
		"apriori": "internal/apriori/*.go",
		"tarm":    "tarm.go",
	} {
		files, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		declared := map[string]bool{} // "pkg.Recv.Name" or "pkg.Name"
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				declared[qualifiedName(pkg, fn)] = true
			}
		}
		if len(declared) == 0 {
			t.Errorf("%s: no exported functions found", pattern)
		}
		for name := range declared {
			if declared[name+"Context"] && !ctxlessTwinsAllowed[name] {
				t.Errorf("%s has a ctx-less twin beside %sContext; keep only the context-taking spelling", name, name)
			}
			if pkg == "core" && strings.HasSuffix(name, "FromTable") {
				t.Errorf("%s: internal/core exports only the XFromTableContext operator", name)
			}
		}
	}
}

// testOnlyExportsAllowed lists the exported functions under internal/
// that no non-test code names, each with the reason it stays. The first
// group is kept on purpose. The second is dead code the sweep that
// introduced this guard left standing: each has a dedicated unit test
// that would have to be deleted with it, and a single change may only
// retire a few tests — delete function and test together, then the
// entry.
var testOnlyExportsAllowed = map[string]string{
	"tdb.DB.DurabilityErr":    "reports a sticky storage fault; safety surface, not a simplicity target",
	"tdb.DB.SyncWAL":          "test seam: TestDurableKillRecover places its crash point just after a flush",
	"tml.RuleSet.Sorted":      "canonical form both sides of the streaming oracles compare (tml and server tests)",
	"apriori.RoaringAcc.Card": "read by the roaring-scalar reference arm of BenchmarkCountingCore",
	"itemset.Set.WithoutItem": "splits an itemset into the brute-force rules of internal/core's oracle tests",

	"timegran.Convert": "dead; goes with TestConvert",
}

// TestNoTestOnlyExports is the sweep guard: an exported function or
// method declared in a non-test file under internal/ must be named at
// least once, outside its own declaration, in non-test Go code of the
// repository (cmd/, examples/, benchmark/ and tarm.go included). The
// match is by bare name, so a method is kept alive by any use of that
// name — the guard catches an export nothing reaches, not every one.
func TestNoTestOnlyExports(t *testing.T) {
	declared := map[string][]string{} // name -> "pkg.Recv.Name" spellings under internal/
	named := map[string]int{}         // name -> identifier occurrences minus declarations
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // .git, .bench_build (the benchmark's GOPATH)
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				named[n.Name]++
			case *ast.FuncDecl:
				named[n.Name.Name]--
				if internal && n.Name.IsExported() {
					declared[n.Name.Name] = append(declared[n.Name.Name], qualifiedName(f.Name.Name, n))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("no exported functions found under internal/")
	}
	stale := map[string]bool{}
	for name := range testOnlyExportsAllowed {
		stale[name] = true
	}
	var findings []string
	for name, spellings := range declared {
		if named[name] > 0 {
			continue
		}
		for _, s := range spellings {
			if _, ok := testOnlyExportsAllowed[s]; ok {
				delete(stale, s)
				continue
			}
			findings = append(findings, s)
		}
	}
	sort.Strings(findings)
	for _, s := range findings {
		t.Errorf("%s is exported but only tests name it: delete it with its test, unexport it, or allow-list it with a reason", s)
	}
	for name := range stale {
		t.Errorf("allow-list entry %s is unnecessary: the function is gone or non-test code names it", name)
	}
}

// TestAutoResolvedInOnePlace guards the counting seam's ownership of
// BackendAuto: apriori.NewSliceCounter resolves it, so no layer above
// may compare against it or switch on it — that is a second resolver
// (or a prediction of the first) waiting to disagree with it. Passing
// the value along, as tarm.MineTraditional does, is fine. Nor may a
// miner count on a backend of its own choosing: every NewSliceCounter
// call passes the configured backend (cfg.Backend), never a constant.
// Reading what a counter resolved to (SliceCounter.Backend) is fine.
func TestAutoResolvedInOnePlace(t *testing.T) {
	name := func(e ast.Expr) string {
		switch e := e.(type) {
		case *ast.Ident:
			return e.Name
		case *ast.SelectorExpr:
			return e.Sel.Name
		}
		return ""
	}
	isAuto := func(e ast.Expr) bool { return name(e) == "BackendAuto" }
	// isConstant matches BackendNaive, apriori.BackendBitmap and the
	// like, but not the field cfg.Backend.
	isConstant := func(e ast.Expr) bool {
		n := name(e)
		return strings.HasPrefix(n, "Backend") && n != "Backend"
	}
	check := func(path string) {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var at token.Pos
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if (n.Op == token.EQL || n.Op == token.NEQ) && (isAuto(n.X) || isAuto(n.Y)) {
					at = n.Pos()
				}
			case *ast.CaseClause:
				for _, e := range n.List {
					if isAuto(e) {
						at = e.Pos()
					}
				}
			case *ast.CallExpr:
				if name(n.Fun) == "NewSliceCounter" && len(n.Args) > 0 && isConstant(n.Args[0]) {
					t.Errorf("%s counts on a fixed backend: pass the configured one (cfg.Backend) to apriori.NewSliceCounter", fset.Position(n.Args[0].Pos()))
				}
			}
			if at.IsValid() {
				t.Errorf("%s branches on BackendAuto: only apriori.NewSliceCounter resolves it (read SliceCounter.Backend for what it became)", fset.Position(at))
			}
			return true
		})
	}
	for _, root := range []string{"internal/core", "internal/tml", "internal/plan", "internal/server", "cmd", "tarm.go"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				check(path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
