package model

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryLayerTypeIsBuilt: every exported nn type with an OutShape method
// — every layer, and Sequential — is constructed — an nn.New<T>( call —
// somewhere in the module's non-test code outside internal/nn. A layer type
// only tests build is surface to delete, not to keep compiling, lowering and
// training.
func TestEveryLayerTypeIsBuilt(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	nnDir := filepath.Join(root, "internal", "nn")

	// The exported receiver types of OutShape in nn's non-test files.
	layers := map[string]bool{}
	ents, err := os.ReadDir(nnDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !isSource(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(nnDir, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "OutShape" {
				continue
			}
			typ := fn.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			if id, ok := typ.(*ast.Ident); ok && id.IsExported() {
				layers[id.Name] = false
			}
		}
	}
	if len(layers) == 0 {
		t.Fatal("found no OutShape method in internal/nn")
	}

	// Every nn.New<T>( call in the module's other non-test files. A directory
	// with a go.mod of its own is another module and is not walked.
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == nnDir || (path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !isSource(d.Name()) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		nn := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "shredder/internal/nn" {
				nn = "nn"
				if imp.Name != nil {
					nn = imp.Name.Name
				}
			}
		}
		if nn == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == nn {
				if name, ok := strings.CutPrefix(sel.Sel.Name, "New"); ok {
					if _, layer := layers[name]; layer {
						layers[name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unbuilt []string
	for name, built := range layers {
		if !built {
			unbuilt = append(unbuilt, name)
		}
	}
	sort.Strings(unbuilt)
	for _, name := range unbuilt {
		t.Errorf("nn.%s has an OutShape but no non-test code outside internal/nn calls nn.New%s: delete it", name, name)
	}
}

// isSource reports whether a file name is a non-test Go source file.
func isSource(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}
