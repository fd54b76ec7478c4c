package memctrl

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// The controller's policy decisions all come from its engines.Policy
// value; the design enum and its predicates must never reappear in
// this package's non-test sources. This pins the refactor: a new design
// becomes a new Policy value, not a new branch here.
func TestNoDesignBranchingInController(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		// The config import may only be used for sizing/timing types;
		// any mention of the Design type or its predicate methods is a
		// policy branch leaking back in.
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Design", "Encrypted", "UsesCounterCache", "CoLocatesCounters", "SeparateCounterWrites":
				// Policy fields carry these names too; only
				// flag selections rooted at the config package or at a
				// config value (cfg, mc.cfg, ...).
				var root string
				switch x := sel.X.(type) {
				case *ast.Ident:
					root = x.Name
				case *ast.SelectorExpr:
					root = x.Sel.Name
				}
				if root == "config" || root == "cfg" {
					t.Errorf("%s: %s.%s — design policy must live in internal/machine/engines",
						fset.Position(sel.Pos()), root, sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// The design policy is one concrete value, never an interface: the
// engines package declares no interface type, and the controller holds
// its policy as an engines.Policy field, so every per-write decision is
// a field read (or an inlinable method on the value) with no dynamic
// dispatch. A new design becomes a new Policy value, not a new
// implementation behind an interface.
func TestHotPathFreeOfEngineInterfaceCalls(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "../machine/engines", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no engines package sources found")
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					if _, iface := ts.Type.(*ast.InterfaceType); iface {
						t.Errorf("%s: engines declares interface %s — design policy must stay one concrete Policy value",
							fset.Position(ts.Pos()), ts.Name.Name)
					}
				}
				return true
			})
		}
	}

	f, err := parser.ParseFile(fset, "memctrl.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var fields []string
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "Controller" {
			return true
		}
		for _, fld := range ts.Type.(*ast.StructType).Fields.List {
			sel, ok := fld.Type.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			pkg, _ := sel.X.(*ast.Ident)
			if pkg == nil || pkg.Name != "engines" {
				continue
			}
			for _, name := range fld.Names {
				fields = append(fields, name.Name)
				if sel.Sel.Name != "Policy" {
					t.Errorf("%s: Controller.%s has type engines.%s, want engines.Policy",
						fset.Position(fld.Pos()), name.Name, sel.Sel.Name)
				}
			}
		}
		return false
	})
	if len(fields) != 1 {
		t.Errorf("Controller holds engines-typed fields %v, want exactly one engines.Policy", fields)
	}
}
