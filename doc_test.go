package xquec_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// goTree is what the Go files of the module declare: the packages by
// name, what each declares at top level, the members (fields and methods)
// of every type, and every name declared anywhere.
type goTree struct {
	pkgs    map[string]map[string]bool
	members map[string]map[string]bool
	names   map[string]bool
	files   map[string]bool // base names of the Go files
}

// parseTree parses every Go file under root but the build caches.
func parseTree(t *testing.T, root string) *goTree {
	tr := &goTree{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}, names: map[string]bool{}, files: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != root || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		tr.files[d.Name()] = true
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		tr.file(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func (tr *goTree) member(typ, name string) {
	if tr.members[typ] == nil {
		tr.members[typ] = map[string]bool{}
	}
	tr.members[typ][name] = true
	tr.names[name] = true
}

// file records one file's declarations under its package name.
func (tr *goTree) file(f *ast.File) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	if tr.pkgs[pkg] == nil {
		tr.pkgs[pkg] = map[string]bool{}
	}
	top := func(name string) {
		tr.pkgs[pkg][name] = true
		tr.names[name] = true
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				top(d.Name.Name)
				continue
			}
			recv := d.Recv.List[0].Type
			for {
				switch r := recv.(type) {
				case *ast.StarExpr:
					recv = r.X
					continue
				case *ast.IndexExpr:
					recv = r.X
					continue
				case *ast.IndexListExpr:
					recv = r.X
					continue
				}
				break
			}
			if id, ok := recv.(*ast.Ident); ok {
				tr.member(id.Name, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					top(s.Name.Name)
					tr.fields(s.Name.Name, s.Type)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						top(n.Name)
					}
				}
			}
		}
	}
	// Types declared inside functions, and their fields, count too.
	ast.Inspect(f, func(n ast.Node) bool {
		if x, ok := n.(*ast.TypeSpec); ok {
			tr.names[x.Name.Name] = true
			tr.fields(x.Name.Name, x.Type)
		}
		return true
	})
}

// fields records the fields, embedded types and interface methods of a
// type's definition as its members.
func (tr *goTree) fields(typ string, x ast.Expr) {
	var list *ast.FieldList
	switch s := x.(type) {
	case *ast.StructType:
		list = s.Fields
	case *ast.InterfaceType:
		list = s.Methods
	default:
		return
	}
	for _, f := range list.List {
		for _, n := range f.Names {
			tr.member(typ, n.Name)
		}
		if len(f.Names) == 0 {
			e := f.Type
			if st, ok := e.(*ast.StarExpr); ok {
				e = st.X
			}
			switch em := e.(type) {
			case *ast.Ident:
				tr.member(typ, em.Name)
			case *ast.SelectorExpr:
				tr.member(typ, em.Sel.Name)
			}
		}
	}
}

var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	// A qualified name: a package or a type, a dot, a member, then
	// perhaps a call's or an index's brackets.
	qualified = regexp.MustCompile(`^\*?([A-Za-z_][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)(\(.*\)|\[.*\])?$`)
	// A bare name that can only be Go's: mixed case, a lower-case letter
	// before an upper-case one (resolvePlan, SplitXML), perhaps called.
	camel = regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*[a-z][A-Z][A-Za-z0-9_]*)(\(.*\))?$`)
	// A path into the tree.
	treePath = regexp.MustCompile(`^(internal/[A-Za-z0-9_./*-]*[A-Za-z0-9_*/])`)
	// A file name, a Go file's or another's (name.xqc, BENCHMARK.json).
	fileName = regexp.MustCompile(`^[A-Za-z0-9_*-]+\.(go|md|json|xml|xqc|xqcg|xqcs|explain|sh)$`)
)

// resolves reports whether a code span of the docs names something the
// tree has, or is no Go name or tree path at all.
func (tr *goTree) resolves(span string) bool {
	if m := treePath.FindStringSubmatch(span); m != nil {
		matches, _ := filepath.Glob(strings.TrimSuffix(m[1], "/"))
		return len(matches) > 0
	}
	if fileName.MatchString(span) {
		return !strings.HasSuffix(span, ".go") || strings.Contains(span, "*") || tr.files[span]
	}
	if m := qualified.FindStringSubmatch(span); m != nil {
		x, name := m[1], m[2]
		switch {
		case tr.pkgs[x] != nil:
			return tr.pkgs[x][name] || tr.members[x][name]
		case tr.members[x] != nil:
			return tr.members[x][name]
		case standard(x):
			return true
		case len(x) > 1 && x[0] >= 'A' && x[0] <= 'Z':
			return false // a type that is not there
		}
		return tr.names[name] // a variable's field or method (S.Extent)
	}
	if m := camel.FindStringSubmatch(span); m != nil {
		return tr.names[m[1]] || paperNames[m[1]]
	}
	return true
}

// standard reports that pkg is a package of the standard library.
func standard(pkg string) bool {
	_, err := build.Default.Import(pkg, "", build.FindOnly)
	return err == nil && !strings.Contains(pkg, ".")
}

// paperNames are the paper's operators, which the docs name in code spans
// and the code implements under other names.
var paperNames = map[string]bool{"ContAccess": true, "ContScan": true, "StructureSummaryAccess": true, "NodeRecord": true}

// TestDocReferences: every code span of README.md and DESIGN.md that is
// a Go name — a package's or a type's member, or a bare mixed-case name
// — is declared somewhere in the module, and every internal/ path is in
// the tree, so the two documents cannot drift from the code they map.
func TestDocReferences(t *testing.T) {
	tr := parseTree(t, ".")
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		var stale []string
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				if !tr.resolves(m[1]) {
					stale = append(stale, doc+":"+strconv.Itoa(i+1)+": "+m[1])
				}
			}
		}
		slices.Sort(stale)
		for _, s := range stale {
			t.Errorf("%s names nothing in the tree", s)
		}
	}
}
