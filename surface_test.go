package perftrack

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

// surfaceKeep lists the exported functions and methods under internal/
// that stay although no non-test code references them, each with its
// reason. Keys are "dir.Func", "dir.Type.Method", a whole package "dir",
// or ".Method" for a method called through an interface, never by name.
// Methods are matched by name only, since the scan does no type checking.
var surfaceKeep = map[string]string{
	"internal/oracle": "reference implementations behind the differential tests",
	"internal/faults": "fault injection driven by the robustness and chaos tests",

	"internal/align.Alignment.SPMDScore": "TestFigure4 reproduces the paper's Figure 4 through it",
	"internal/cluster.DBSCAN":            "row-slice front door the oracle differentials call",
	"internal/cluster.Run":               "row-slice front door the oracle differentials call",
	"internal/cluster.NewNN":             "row-slice front door the oracle differentials call",
	"internal/report.Table.Markdown":     "the table.md and trend_ipc.md report goldens are pinned through it",
	"internal/service.Server.Submit":     "the root service benchmarks drive the server through it",
	"internal/trace.Trace.CanonicalHash": "the hash goldens and the differential fuzz target are defined through it",
	"internal/trace.Trace.SortByTime":    "orders a trace into the arrival order the batch-vs-stream differentials replay",

	".MarshalJSON": "encoding/json calls it through json.Marshaler",
}

// TestSurface fails when an exported function or method under internal/
// has no reference from non-test Go code in this module or in the
// trackbench module: production code must not exist only for tests.
func TestSurface(t *testing.T) {
	type decl struct{ key, pos string }
	var decls []decl
	funcRefs := map[string]bool{} // "pkgdir.Name"
	methodRefs := map[string]bool{}

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		imports := map[string]string{} // local name -> module-relative dir
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			rel, ok := strings.CutPrefix(ip, "perftrack/")
			if ip == "perftrack" {
				rel, ok = ".", true
			}
			if !ok {
				continue
			}
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = rel
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			key := dir + "." + fd.Name.Name
			if fd.Recv != nil {
				key = dir + "." + recvName(fd.Recv) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fset.Position(fd.Pos()).String()})
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl: // its name is a declaration, not a reference
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr: // pkg.F through an import, or x.M
				if x, ok := n.X.(*ast.Ident); ok {
					if rel, ok := imports[x.Name]; ok {
						funcRefs[rel+"."+n.Sel.Name] = true
						return false
					}
				}
				methodRefs[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident: // a bare F of the file's own package
				funcRefs[dir+"."+n.Name] = true
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/")
	}

	declared := map[string]bool{}
	for _, d := range decls {
		parts := strings.Split(d.key, ".")
		declared[d.key] = true
		declared[parts[0]] = true
		if len(parts) == 3 {
			declared["."+parts[2]] = true
		}
	}
	for key := range surfaceKeep {
		if !declared[key] {
			t.Errorf("surfaceKeep names %s, which is not an exported declaration under internal/", key)
		}
	}

	var unused []string
	for _, d := range decls {
		parts := strings.Split(d.key, ".")
		used := funcRefs[d.key]
		if name := parts[len(parts)-1]; len(parts) == 3 { // method
			used = methodRefs[name] || surfaceKeep["."+name] != ""
		}
		switch {
		case used && surfaceKeep[d.key] != "":
			t.Errorf("%s now has a non-test reference: drop its surfaceKeep entry", d.key)
		case !used && surfaceKeep[d.key] == "" && surfaceKeep[parts[0]] == "":
			unused = append(unused, d.key+" ("+d.pos+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but referenced only by tests: %s", u)
	}
}

func recvName(fl *ast.FieldList) string {
	e := fl.List[0].Type
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ix.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
