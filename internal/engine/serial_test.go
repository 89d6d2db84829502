package engine_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneGoroutinePerQuery: a query is evaluated on its caller's
// goroutine. No non-test file of the evaluator or of the algebra it calls
// starts a goroutine or imports the worker pool; queries run in parallel
// only with each other, as separate runs.
func TestOneGoroutinePerQuery(t *testing.T) {
	files := 0
	for _, dir := range []string{".", "../algebra"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files++
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "xquec/internal/xpar" {
					t.Errorf("%s imports %s", fset.Position(imp.Pos()), p)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s starts a goroutine", fset.Position(g.Pos()))
				}
				return true
			})
		}
	}
	if files < 10 {
		t.Fatalf("parsed %d files: the evaluator's sources were not found", files)
	}
}
