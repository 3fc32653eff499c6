package qei

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"qei/internal/golden"
)

// TestPublicAPI lists every exported name of the package — consts,
// vars, funcs, types, their exported methods and struct fields — and
// compares the list with testdata/api.txt, so any growth of the public
// API shows up as a diff. After an intentional API change, regenerate
// the file as package golden describes.
func TestPublicAPI(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, exportedNames(f)...)
	}
	sort.Strings(names)
	golden.Check(t, "testdata/api.txt", strings.Join(names, "\n")+"\n")
}

// exportedNames lists the exported declarations of one file, one
// "<kind> <name>" entry each.
func exportedNames(f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				out = append(out, "func "+d.Name.Name)
				continue
			}
			if id := typeIdent(d.Recv.List[0].Type); id != nil && id.IsExported() {
				out = append(out, "method "+id.Name+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							out = append(out, d.Tok.String()+" "+n.Name)
						}
					}
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					out = append(out, "type "+s.Name.Name)
					st, ok := s.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						names := field.Names
						if id := typeIdent(field.Type); len(names) == 0 && id != nil {
							names = []*ast.Ident{id} // embedded: named after its type
						}
						for _, n := range names {
							if n.IsExported() {
								out = append(out, "field "+s.Name.Name+"."+n.Name)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// typeIdent returns the type name of T or *T, or nil for any other
// type expression.
func typeIdent(e ast.Expr) *ast.Ident {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	id, _ := e.(*ast.Ident)
	return id
}
