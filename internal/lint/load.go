package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one type-checked, non-test package of the module under analysis.
// Test files (*_test.go) are never loaded: the determinism contract governs
// simulation code, and tests are exempt from every pass by construction.
type Package struct {
	// Path is the full import path (module path + "/" + Rel).
	Path string
	// Rel is the slash-separated directory relative to the module root
	// ("" for the root package, "internal/world", "cmd/mmv2v-sim", ...).
	Rel   string
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	Types *types.Package

	// Mod is the whole-module call-graph index shared by every package of
	// one Run (see callgraph.go).
	Mod *Module

	root       string
	directives map[directiveKey]bool
}

// directiveKey identifies one //mmv2v:<name> directive occurrence by the
// source line that carries it.
type directiveKey struct {
	name string
	file string
	line int
}

// suppressed reports whether a //mmv2v:<name> directive covers the node
// starting at pos: either trailing on the same line or on the line
// immediately above.
func (p *Package) suppressed(name string, pos token.Pos) bool {
	at := p.Fset.Position(pos)
	return p.directives[directiveKey{name, at.Filename, at.Line}] ||
		p.directives[directiveKey{name, at.Filename, at.Line - 1}]
}

// relPos converts a token.Pos to a Position whose Filename is relative to
// the module root and slash-separated, for stable, machine-independent
// output.
func (p *Package) relPos(pos token.Pos) token.Position {
	at := p.Fset.Position(pos)
	if rel, err := filepath.Rel(p.root, at.Filename); err == nil {
		at.Filename = filepath.ToSlash(rel)
	}
	return at
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", filepath.Join(root, "go.mod"))
}

// sourceDirs walks the module tree and returns every directory (relative,
// slash-separated, "" for the root) holding at least one non-test .go file.
// testdata, hidden, and underscore-prefixed directories are skipped, so
// analyzer fixtures with deliberate violations are never loaded.
func sourceDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && isSourceFile(e.Name()) {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				if rel == "." {
					rel = ""
				}
				dirs = append(dirs, filepath.ToSlash(rel))
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// parsedPkg is one package after parsing, before type-checking.
type parsedPkg struct {
	rel     string
	path    string
	files   []*ast.File
	imports []string // module-internal import paths only
}

// parseDir parses the non-test .go files of one directory.
func parseDir(fset *token.FileSet, root, rel, module string) (*parsedPkg, error) {
	dir := filepath.Join(root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &parsedPkg{rel: rel, path: module}
	if rel != "" {
		p.path = module + "/" + rel
	}
	name := ""
	for _, e := range entries {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if name == "" {
			name = f.Name.Name
		} else if f.Name.Name != name {
			return nil, fmt.Errorf("lint: %s: mixed package names %q and %q", dir, name, f.Name.Name)
		}
		p.files = append(p.files, f)
		for _, imp := range f.Imports {
			ipath, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return nil, err
			}
			if ipath == module || strings.HasPrefix(ipath, module+"/") {
				p.imports = append(p.imports, ipath)
			}
		}
	}
	return p, nil
}

// chainImporter resolves module-internal imports from the packages loaded so
// far and delegates everything else (the standard library) to go/importer's
// source importer — keeping the analyzer stdlib-only per the repo rule.
type chainImporter struct {
	module   string
	loaded   map[string]*types.Package
	fallback types.ImporterFrom
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c *chainImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == c.module || strings.HasPrefix(path, c.module+"/") {
		if p, ok := c.loaded[path]; ok {
			return p, nil
		}
		return nil, fmt.Errorf("lint: internal package %s imported before it was loaded", path)
	}
	return c.fallback.ImportFrom(path, dir, mode)
}

// Load parses and type-checks every non-test package under root, which must
// be a module root (contain go.mod). Packages are returned in a
// deterministic topological order (dependencies first, ties broken by path).
func Load(root string) ([]*Package, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	dirs, err := sourceDirs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	byPath := make(map[string]*parsedPkg, len(dirs))
	var order []*parsedPkg
	for _, rel := range dirs {
		p, err := parseDir(fset, root, rel, module)
		if err != nil {
			return nil, err
		}
		byPath[p.path] = p
		order = append(order, p)
	}
	sorted, err := topoSort(order, byPath)
	if err != nil {
		return nil, err
	}

	imp := &chainImporter{
		module:   module,
		loaded:   make(map[string]*types.Package, len(sorted)),
		fallback: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	var out []*Package
	for _, p := range sorted {
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(p.path, fset, p.files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", p.path, err)
		}
		imp.loaded[p.path] = tpkg
		pkg := &Package{
			Path:       p.path,
			Rel:        p.rel,
			Fset:       fset,
			Files:      p.files,
			Info:       info,
			Types:      tpkg,
			root:       root,
			directives: make(map[directiveKey]bool),
		}
		collectDirectives(pkg)
		out = append(out, pkg)
	}
	return out, nil
}

// topoSort orders packages dependencies-first; input order (sorted by path)
// breaks ties, so the result is deterministic.
func topoSort(pkgs []*parsedPkg, byPath map[string]*parsedPkg) ([]*parsedPkg, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(pkgs))
	var out []*parsedPkg
	var visit func(p *parsedPkg) error
	visit = func(p *parsedPkg) error {
		switch state[p.path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", p.path)
		}
		state[p.path] = visiting
		for _, dep := range p.imports {
			d, ok := byPath[dep]
			if !ok {
				return fmt.Errorf("lint: %s imports %s, which has no source directory", p.path, dep)
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		state[p.path] = done
		out = append(out, p)
		return nil
	}
	for _, p := range pkgs {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// collectDirectives records every //mmv2v:<name> comment line in the
// package's files. A directive only suppresses findings when it carries a
// non-empty one-line justification after the name; a bare directive is
// recorded as false and leaves the finding in place.
func collectDirectives(p *Package) {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//mmv2v:")
				if !ok {
					continue
				}
				name, just, _ := strings.Cut(rest, " ")
				if i := strings.IndexAny(name, "\t"); i >= 0 {
					name, just = name[:i], name[i+1:]
				}
				if strings.TrimSpace(just) == "" {
					continue
				}
				at := p.Fset.Position(c.Pos())
				p.directives[directiveKey{name, at.Filename, at.Line}] = true
			}
		}
	}
}
