package engine_test

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"xquec/internal/engine"
	"xquec/internal/vm"
	"xquec/internal/xquery"
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

// TestConcurrentRunsOwnTheirBindings: one program run from 8 goroutines
// at once gives every run the serial output. A run binds the query's
// variables in slots of its own; slots on the shared Program would be
// written by every run at once, which `go test -race` (make check)
// reports and which leaks one run's bindings into another's output. The
// query's nested FLWOR shadows $p, replays a LET after its ORDER BY, and
// the outer $p is read again after it returns.
func TestConcurrentRunsOwnTheirBindings(t *testing.T) {
	const q = `FOR $p IN /site/people/person RETURN <p n="{$p/name/text()}">{
		FOR $p IN /site/closed_auctions/closed_auction[buyer/@person = $p/@id] LET $k := $p/price/text() ORDER BY $p/price RETURN <t k="{$k}"/>
	}{$p/@id}</p>`
	expr, err := xquery.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := engine.Compile(expr, vm.Store(t), q)
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() (string, error) {
		res, err := prog.Run(context.Background())
		if err != nil {
			return "", err
		}
		return res.SerializeXML()
	}
	serial, err := runOnce()
	if err != nil || !strings.Contains(serial, "<t k=") {
		t.Fatalf("serial run: %v, %.200q", err, serial)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if out, err := runOnce(); err != nil || out != serial {
					errs <- fmt.Sprintf("run %d: %v, output differs from the serial one: %t", i, err, out != serial)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
