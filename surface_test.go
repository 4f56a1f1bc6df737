package mead

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestPublicFunctionsHaveCallers keeps mead.go's surface to what is used: an
// exported function there must be referenced by a non-test file of this
// module outside package mead (the cmd/ binaries) or by an Example in
// example_test.go, which CI runs. A function only tests call is not earning
// its place in the public API.
func TestPublicFunctionsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	api, err := parser.ParseFile(fset, "mead.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]bool)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a module of its own, such as bench/
			}
			return nil
		}
		if filepath.Dir(path) == "." || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		markUses(f, f, used)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	examples, err := parser.ParseFile(fset, "example_test.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range examples.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(fn.Name.Name, "Example") {
			markUses(examples, fn, used)
		}
	}

	for _, decl := range api.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || !fn.Name.IsExported() {
			continue
		}
		if !used[fn.Name.Name] {
			t.Errorf("mead.%s has no caller under cmd/ and no Example in example_test.go: use it or delete it", fn.Name.Name)
		}
	}
}

// markUses records in used every name that node references as mead.Name,
// through whatever name file imports package mead under.
func markUses(file *ast.File, node ast.Node, used map[string]bool) {
	pkg := ""
	for _, imp := range file.Imports {
		if path, err := strconv.Unquote(imp.Path.Value); err == nil && path == "mead" {
			pkg = "mead"
			if imp.Name != nil {
				pkg = imp.Name.Name
			}
		}
	}
	if pkg == "" {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg {
				used[sel.Sel.Name] = true
			}
		}
		return true
	})
}
