// Package fuzzlist holds one gate, TestFuzzSmokeListsEveryTarget: the
// Makefile's fuzz-smoke recipe runs every fuzz target of the module, each in
// its own package, and names none that is gone. The package has no non-test
// code.
package fuzzlist

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestFuzzSmokeListsEveryTarget compares the module's `func Fuzz*` in test
// files with the targets fuzz-smoke runs, both as "<package dir> <name>".
func TestFuzzSmokeListsEveryTarget(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	declared, err := fuzzTargets(root)
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	run := smokeTargets(string(makefile))
	if len(declared) == 0 || len(run) == 0 {
		t.Fatalf("%d fuzz targets declared, %d run by fuzz-smoke: the scan or the parse found nothing", len(declared), len(run))
	}
	for _, d := range declared {
		if !slices.Contains(run, d) {
			t.Errorf("fuzz target %s is not in the Makefile's fuzz-smoke recipe", d)
		}
	}
	for _, r := range run {
		if !slices.Contains(declared, r) {
			t.Errorf("fuzz-smoke runs %s, which no test file declares", r)
		}
	}
}

// TestSmokeTargetsParse: both spellings the recipe uses, a loop over names
// and a single target, are read with the package each line names.
func TestSmokeTargetsParse(t *testing.T) {
	recipe := "other:\n\techo -fuzz '^FuzzNot$$' ./x\n" +
		"fuzz-smoke:\n" +
		"\tfor f in FuzzA FuzzB; do \\\n" +
		"\t\t$(GO) test -run '^$$' -fuzz \"^$$f$$\" -fuzztime 10s ./internal/a || exit 1; done\n" +
		"\t$(GO) test -run '^$$' -fuzz '^FuzzC$$' -fuzztime 10s ./internal/c\n" +
		"\n" +
		"bench:\n\t$(GO) test -fuzz '^FuzzD$$' ./internal/d\n"
	got := smokeTargets(recipe)
	want := []string{"./internal/a FuzzA", "./internal/a FuzzB", "./internal/c FuzzC"}
	if !slices.Equal(got, want) {
		t.Fatalf("targets %q, want %q", got, want)
	}
}

// fuzzTargets returns every top-level `func Fuzz*` in a test file under
// root, skipping testdata, directories named with a leading "." or "_" and
// nested modules, as the go command does. Each is "./<dir> <name>", dir
// relative to root, in walk order.
func fuzzTargets(root string) ([]string, error) {
	var out []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				out = append(out, "./"+filepath.ToSlash(rel)+" "+fn.Name.Name)
			}
		}
		return nil
	})
	return out, err
}

var (
	loopNames  = regexp.MustCompile(`for f in ([^;]*);`)
	singleName = regexp.MustCompile(`-fuzz '\^(Fuzz\w*)\$\$'`)
	pkgDir     = regexp.MustCompile(`\s(\./\S*)`)
)

// smokeTargets returns the targets of the fuzz-smoke recipe in makefile,
// each as "<package dir> <name>": a recipe line, with its continuations,
// names one package and runs either the names of its `for f in …;` loop or
// the one -fuzz pattern it spells out.
func smokeTargets(makefile string) []string {
	_, recipe, ok := strings.Cut(makefile, "\nfuzz-smoke:")
	if !ok {
		return nil
	}
	var out []string
	lines := strings.Split(strings.ReplaceAll(recipe, "\\\n", " "), "\n")
	for _, line := range lines[1:] {
		if !strings.HasPrefix(line, "\t") {
			break // the recipe ends at the first line that is not one of it
		}
		pkg := pkgDir.FindStringSubmatch(line)
		if pkg == nil {
			continue
		}
		var names []string
		if m := loopNames.FindStringSubmatch(line); m != nil {
			names = strings.Fields(m[1])
		} else if m := singleName.FindStringSubmatch(line); m != nil {
			names = []string{m[1]}
		}
		for _, n := range names {
			out = append(out, pkg[1]+" "+n)
		}
	}
	return out
}
