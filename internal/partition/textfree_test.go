package partition

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestFusedIsTextFree walks the static call graph below fuse and
// below Set.Compact through this package and storage — type-checked, so
// a call is the function it names — and fails if it reaches
// storage.Load, the XML parser, or any package of the module that sits
// above storage: fusion and compaction are text-free because no path
// leads to text, not because a comment says so. Calls through an
// interface (a codec's Encode) end in the compress packages, and the
// worker pool (xpar) imports only the standard library. Compaction's
// plan search is its caller's function value, which the walk does not
// follow: the caller builds it from the decoded values (Values.Textual).
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
	walk := func(start string) map[string]bool {
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
					if k == "xquec/internal/storage.Load" {
						t.Errorf("%s uses %s: %s reaches the loader", at, k, start)
					}
					if byKey[k] != nil && !seen[k] {
						seen[k] = true
						queue = append(queue, k)
					}
				case path == "xquec/internal/succinct" || path == "xquec/internal/xpar" || strings.HasPrefix(path, "xquec/internal/compress"):
					// below storage: no way up to the loader or the parser
				default:
					t.Errorf("%s uses %s.%s: %s reaches %s", at, o.Pkg().Name(), o.Name(), start, path)
				}
				return true
			})
		}
		return seen
	}
	for start, musts := range map[string][]string{
		"xquec/internal/partition.fuse": {
			"xquec/internal/partition.spliceSegments", "(*xquec/internal/storage.Fusion).Store",
			"(*xquec/internal/storage.Fusion).merge", "(*xquec/internal/storage.Fusion).rebuild",
			"(*xquec/internal/storage.Store).deriveFromSuccinct", "xquec/internal/storage.buildContainer",
		},
		"(*xquec/internal/partition.Set).Compact": {
			"xquec/internal/storage.DecodeValues", "(*xquec/internal/storage.Values).Store",
			"(*xquec/internal/storage.Store).buildContainers", "xquec/internal/storage.buildContainer",
			"(*xquec/internal/storage.Store).deriveFromSuccinct",
		},
	} {
		seen := walk(start)
		for _, must := range musts {
			if !seen[must] {
				t.Errorf("the walk from %s did not reach %s: it no longer follows the code", start, must)
			}
		}
	}
}

// TestNoScatterPath guards against the scatter path growing back. The
// package is manifests plus fusion, so its non-test files import no query
// layer, and no non-test identifier of the module names a scatter, a
// fan-out or a bind hook: every query over a set runs on Set.Store.
func TestNoScatterPath(t *testing.T) {
	fset := token.NewFileSet()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	banned := []string{"xquec/internal/engine", "xquec/internal/xquery", "xquec/internal/algebra"}
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel, _ := filepath.Rel(root, path); rel == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		if filepath.Dir(path) == filepath.Join(root, "internal", "partition") {
			for _, imp := range file.Imports {
				if p := strings.Trim(imp.Path.Value, `"`); slices.Contains(banned, p) {
					t.Errorf("%s imports %s", filepath.Base(path), p)
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				for _, word := range []string{"Scatter", "FanOut", "BindHook", "OpHook"} {
					if strings.Contains(id.Name, word) {
						t.Errorf("%s: identifier %s", fset.Position(id.Pos()), id.Name)
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
	if files < 50 {
		t.Fatalf("walked %d files under %s: not the module", files, root)
	}
}
