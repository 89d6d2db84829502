package costmodel

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCostModelReadsNoXML: the search runs over the values the loader's
// own pass measured (storage.Values.Textual), so no non-test file of the
// cost model, nor of any package of the module it imports, transitively,
// imports the XML parser. A second walk over the document, with its own
// idea of which values are typed, cannot grow back.
func TestCostModelReadsNoXML(t *testing.T) {
	const module, parserPkg = "xquec/", "xquec/internal/xmlparser"
	via := map[string]string{"xquec/internal/costmodel": ""} // package -> the one importing it
	queue := []string{"xquec/internal/costmodel"}
	files := 0
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		paths, err := filepath.Glob(filepath.Join("../..", strings.TrimPrefix(pkg, module), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			files++
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if p == parserPkg {
					chain := pkg
					for at := via[pkg]; at != ""; at = via[at] {
						chain = at + " → " + chain
					}
					t.Errorf("%s imports %s (%s)", fset.Position(imp.Pos()), p, chain)
				}
				if _, seen := via[p]; !seen && strings.HasPrefix(p, module) {
					via[p] = pkg
					queue = append(queue, p)
				}
			}
		}
	}
	if files < 2 {
		t.Fatalf("parsed %d files: the cost model's sources were not found", files)
	}
}
