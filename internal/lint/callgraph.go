package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural substrate of the analyzer (DESIGN.md §8):
// a lightweight, stdlib-only call-graph layer built once per Run over every
// loaded package. Passes that reason beyond a single expression — the
// transitive wallclock/globalrand taint and alloccheck's hot-path closure —
// consume it through Package.Mod.
//
// The model is deliberately static and conservative:
//
//   - call edges are recorded only for direct references to named module
//     functions and methods (idents and selector expressions resolving to a
//     *types.Func declared in this module). A bare reference counts as an
//     edge even without a call — a function value that escapes is assumed
//     to be invoked eventually;
//   - interface method calls resolve to the interface's method object,
//     which has no body here, so dynamic dispatch conservatively ends the
//     walk (every concrete implementation is still analyzed at its own
//     declaration);
//   - function literals are attributed to their enclosing declaration:
//     anything a closure does, its declarer is considered to do.
//
// Package-level var initializer expressions run outside any declared
// function and are not modeled; the repo's determinism passes govern
// executable simulation paths, which all live in declared functions.

// callSite is one static reference from a function body to a module
// function or method.
type callSite struct {
	callee *types.Func
	pos    token.Pos
}

// directUse is one direct use of a forbidden stdlib function (time.Now,
// math/rand.Intn, ...) inside a function body.
type directUse struct {
	name string // qualified, e.g. "time.Now"
	pos  token.Pos
}

// funcInfo is the per-function row of the module call graph.
type funcInfo struct {
	obj  *types.Func
	pkg  *Package
	decl *ast.FuncDecl

	// calls lists static references to module functions in source order.
	calls []callSite
	// wallclock and rand list direct uses of wall-clock and math/rand
	// functions in source order.
	wallclock []directUse
	rand      []directUse
}

// Module is the whole-module analysis index shared by every package of one
// Run. Maps are used as sets and lookup tables only; every iteration that
// could influence output order goes through the sorted funcs slice.
type Module struct {
	pkgs  []*Package
	funcs map[*types.Func]*funcInfo
	// order lists every declared function sorted by source position, the
	// canonical iteration order for deterministic taint propagation.
	order []*funcInfo

	wallclockTaint map[*types.Func]string // func -> witness chain
	randTaint      map[*types.Func]string

	// hotChains maps every function statically reachable from a
	// //mmv2v:hotpath root to its call-path witness chain from that root
	// ("Refresh → buildLists"), consumed by alloccheck. Roots map to
	// their own name; when several roots reach a function, the first root
	// in position order wins, so chains are identical run to run.
	hotChains map[*types.Func]string
}

// buildModule indexes every declared function of the loaded packages and
// links each package back to the shared module model.
func buildModule(pkgs []*Package) *Module {
	m := &Module{pkgs: pkgs, funcs: make(map[*types.Func]*funcInfo)}
	for _, p := range pkgs {
		p.Mod = m
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &funcInfo{obj: obj, pkg: p, decl: fd}
				collectBody(p, fd, fi)
				m.funcs[obj] = fi
				m.order = append(m.order, fi)
			}
		}
	}
	sort.Slice(m.order, func(i, j int) bool {
		a, b := m.order[i].pkg.relPos(m.order[i].decl.Pos()), m.order[j].pkg.relPos(m.order[j].decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	// internal/obs/live is the sanctioned introspection boundary: its
	// wall-clock reads feed only the HTTP progress/ETA surface and can never
	// flow back into simulation state, so taint neither originates in nor
	// propagates through it. Everything else reaching the clock outside cmd/
	// is laundering.
	m.wallclockTaint = m.propagate(
		func(fi *funcInfo) []directUse { return fi.wallclock },
		func(fi *funcInfo) bool { return underLive(fi.pkg) },
	)
	// internal/xrand is the sanctioned randomness wrapper: its direct
	// math/rand use is the boundary itself, so taint neither originates in
	// nor propagates through it. Callers consume split streams through its
	// API; everything else wrapping math/rand is laundering.
	m.randTaint = m.propagate(
		func(fi *funcInfo) []directUse { return fi.rand },
		func(fi *funcInfo) bool { return fi.pkg.Rel == "internal/xrand" },
	)
	m.hotChains = m.hotpaths()
	return m
}

// hotpaths seeds every //mmv2v:hotpath-annotated declaration (directive
// trailing on, or on the line directly above, the func keyword — the last
// doc-comment line works) and walks its static call closure breadth-first,
// recording the call-path witness chain from the root. Roots are visited in
// position order and a function keeps the first chain that reaches it, so
// the map — and every alloccheck finding message built from it — is
// deterministic.
func (m *Module) hotpaths() map[*types.Func]string {
	chains := make(map[*types.Func]string)
	for _, root := range m.order {
		if !root.pkg.suppressed("hotpath", root.decl.Pos()) {
			continue
		}
		if _, seen := chains[root.obj]; !seen {
			chains[root.obj] = root.obj.Name()
		}
		frontier := []*types.Func{root.obj}
		for len(frontier) > 0 {
			fn := frontier[0]
			frontier = frontier[1:]
			fi, ok := m.funcs[fn]
			if !ok {
				continue
			}
			for _, cs := range fi.calls {
				if _, seen := chains[cs.callee]; seen {
					continue
				}
				chains[cs.callee] = chains[fn] + " → " + cs.callee.Name()
				frontier = append(frontier, cs.callee)
			}
		}
	}
	return chains
}

// collectBody walks one declared function (closures included) and records
// call edges and direct forbidden-stdlib uses.
func collectBody(p *Package, fd *ast.FuncDecl, fi *funcInfo) {
	record := func(id *ast.Ident) {
		fn, ok := p.Info.Uses[id].(*types.Func)
		if !ok {
			return
		}
		if fn.Pkg() == nil {
			return
		}
		switch path := fn.Pkg().Path(); {
		case path == "time" && wallClockFuncs[fn.Name()]:
			fi.wallclock = append(fi.wallclock, directUse{"time." + fn.Name(), id.Pos()})
		case path == "math/rand" || path == "math/rand/v2":
			fi.rand = append(fi.rand, directUse{path + "." + fn.Name(), id.Pos()})
		case moduleInternal(p, path):
			fi.calls = append(fi.calls, callSite{fn, id.Pos()})
		}
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			record(id)
		}
		return true
	})
}

// moduleInternal reports whether an import path belongs to the module under
// analysis.
func moduleInternal(p *Package, path string) bool {
	module := p.Path
	if p.Rel != "" {
		module = strings.TrimSuffix(p.Path, "/"+p.Rel)
	}
	return path == module || strings.HasPrefix(path, module+"/")
}

// propagate computes the transitive taint relation for one source kind: a
// function is tainted when it directly uses a forbidden stdlib function or
// statically references a tainted module function. sealed marks functions
// that are a sanctioned boundary: they neither seed nor forward taint.
//
// The result maps each tainted function to a human-readable witness chain
// ("NowSec → time.Now"). Propagation is a breadth-first fixpoint over the
// position-sorted function order, so chains — and therefore finding
// messages — are identical run to run.
func (m *Module) propagate(sources func(*funcInfo) []directUse, sealed func(*funcInfo) bool) map[*types.Func]string {
	taint := make(map[*types.Func]string, 8)
	var frontier []*funcInfo
	for _, fi := range m.order {
		if sealed(fi) {
			continue
		}
		if uses := sources(fi); len(uses) > 0 {
			taint[fi.obj] = fi.obj.Name() + " → " + uses[0].name
			frontier = append(frontier, fi)
		}
	}
	for len(frontier) > 0 {
		var next []*funcInfo
		for _, fi := range m.order {
			if _, done := taint[fi.obj]; done || sealed(fi) {
				continue
			}
			for _, cs := range fi.calls {
				chain, tainted := taint[cs.callee]
				if !tainted {
					continue
				}
				taint[fi.obj] = fi.obj.Name() + " → " + chain
				next = append(next, fi)
				break
			}
		}
		frontier = next
	}
	return taint
}
