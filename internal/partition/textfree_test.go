package partition

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// TestFusedIsTextFree walks the static call graph below Set.Fused
// through this package and storage — type-checked, so a call is the
// function it names — and fails if it reaches storage.Load, the XML
// parser, or any package of the module that sits above storage: fusion
// is text-free because no path leads to text, not because a comment
// says so. Calls through an interface (a codec's Encode) end in the
// compress packages, which import none of those.
func TestFusedIsTextFree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks two packages from source")
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	bodies := map[types.Object]*ast.FuncDecl{}
	for _, dir := range []string{"../storage", "."} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, file)
		}
		abs, _ := filepath.Abs(dir)
		conf := types.Config{Importer: imp}
		if _, err := conf.Check("xquec/internal/"+filepath.Base(abs), fset, files, info); err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					bodies[info.Defs[fd.Name]] = fd
				}
			}
		}
	}

	// key names a function independently of which type-check produced
	// its object (partition sees storage through the importer's copy).
	key := func(o types.Object) string {
		f, ok := o.(*types.Func)
		if !ok || f.Pkg() == nil {
			return ""
		}
		return f.FullName()
	}
	byKey := map[string]*ast.FuncDecl{}
	for o, fd := range bodies {
		byKey[key(o)] = fd
	}
	const start = "(*xquec/internal/partition.Set).Fused"
	seen := map[string]bool{start: true}
	queue := []string{start}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		fd := byKey[at]
		if fd == nil {
			t.Fatalf("no body for %s", at)
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			o := info.Uses[id]
			if o == nil || o.Pkg() == nil || !strings.HasPrefix(o.Pkg().Path(), "xquec/") {
				return true
			}
			switch path := o.Pkg().Path(); {
			case path == "xquec/internal/storage" || path == "xquec/internal/partition":
				k := key(o)
				if k == "xquec/internal/storage.Load" || k == "xquec/internal/storage.LoadSharded" {
					t.Errorf("%s uses %s: Set.Fused reaches the loader", at, k)
				}
				if byKey[k] != nil && !seen[k] {
					seen[k] = true
					queue = append(queue, k)
				}
			case path == "xquec/internal/succinct" || strings.HasPrefix(path, "xquec/internal/compress"):
				// below storage: no way up to the loader or the parser
			default:
				t.Errorf("%s uses %s.%s: Set.Fused reaches %s", at, o.Pkg().Name(), o.Name(), path)
			}
			return true
		})
	}
	for _, must := range []string{
		"(*xquec/internal/partition.Set).spliceShards", "(*xquec/internal/partition.Set).spliceSegments",
		"(*xquec/internal/storage.Fusion).merge", "(*xquec/internal/storage.Fusion).rebuild",
		"(*xquec/internal/storage.Store).deriveFromSuccinct", "xquec/internal/storage.buildContainer",
	} {
		if !seen[must] {
			t.Errorf("the walk did not reach %s: it no longer follows the code", must)
		}
	}
}
