package tarm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
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
				name := pkg + "."
				if fn.Recv != nil {
					recv := fn.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					name += recv.(*ast.Ident).Name + "."
				}
				declared[name+fn.Name.Name] = true
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
