package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// alloccheck is the hot-path allocation-discipline analysis (DESIGN.md §8,
// backing the ROADMAP perf trajectory). The bench gate diffs ns/op, but an
// accidental allocation on a hand-optimized hot path — an append that
// regrows, a value boxed into an interface argument, a closure capture —
// hides inside run-to-run noise for a long time before it shows up as a
// slowdown. This pass makes the zero-alloc property a static contract:
//
//   - a function annotated //mmv2v:hotpath <name> (directive trailing on,
//     or directly above, the func line — the last doc-comment line works)
//     is a root; every function in its static call closure is hot, and the
//     module index records the call-path witness chain from the root
//     (Refresh → buildLists);
//   - every allocation site lexically inside a hot function is flagged
//     with that chain: make/new, slice and map composite literals,
//     &composite escapes, append, string concatenation, string↔[]byte/rune
//     conversions, calls that box a value into an interface parameter
//     (fmt/errors calls included), closures that capture locals, and map
//     writes;
//   - amortized or setup-time allocations carry the mandatory-justification
//     escape hatch //mmv2v:alloc <why> — persistent scratch reusing its
//     capacity across ticks, memoization-cache fills, cold panic paths.
//
// Like the rest of the suite, the walk is static and conservative: dynamic
// dispatch through an interface ends the closure (concrete implementations
// are hot only if separately annotated or reached directly), and a
// function literal's body belongs to its declarer. The detectors are
// syntactic may-allocate checks, not an escape analysis — the point is
// that every allocation construct on a hot path is either hoisted or
// carries a reviewed justification, exactly the //mmv2v:shared discipline
// applied to performance.

// runAllocCheck flags allocation sites in the hot functions declared in p.
func runAllocCheck(p *Package) []Finding {
	m := p.Mod
	if m == nil {
		return nil
	}
	var out []Finding
	for _, fi := range m.order {
		if fi.pkg != p {
			continue
		}
		chain, hot := m.hotChains[fi.obj]
		if !hot {
			continue
		}
		out = append(out, allocSites(p, fi.decl, chain)...)
	}
	return out
}

// allocSites walks one hot function body and emits a finding per
// unjustified allocation construct.
func allocSites(p *Package, fd *ast.FuncDecl, chain string) []Finding {
	var out []Finding
	flag := func(pos token.Pos, desc string) {
		if p.suppressed("alloc", pos) {
			return
		}
		out = append(out, finding(p, pos, "alloccheck",
			fmt.Sprintf("%s on hot path (%s); hoist it out of the hot loop or justify with //mmv2v:alloc", desc, chain)))
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			checkCall(p, e, flag)
		case *ast.CompositeLit:
			switch p.typeUnder(e).(type) {
			case *types.Slice:
				flag(e.Pos(), "slice literal allocates its backing array")
			case *types.Map:
				flag(e.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, lit := e.X.(*ast.CompositeLit); lit {
					flag(e.Pos(), "&composite escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isString(p, e.X) && !(isConst(p, e.X) && isConst(p, e.Y)) {
				flag(e.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if e.Tok == token.ADD_ASSIGN && len(e.Lhs) == 1 && isString(p, e.Lhs[0]) {
				flag(e.Pos(), "string concatenation allocates")
			}
			for _, lhs := range e.Lhs {
				ix, ok := lhs.(*ast.IndexExpr)
				if !ok {
					continue
				}
				if _, isMap := p.typeUnder(ix.X).(*types.Map); isMap {
					flag(ix.Pos(), "map write may allocate a bucket")
				}
			}
		case *ast.FuncLit:
			if v := capturedLocal(p, fd, e); v != nil {
				flag(e.Pos(), fmt.Sprintf("closure captures %s, forcing a heap allocation", v.Name()))
			}
		}
		return true
	})
	return out
}

// checkCall flags the allocating call shapes: the make/new builtins, append,
// string↔[]byte/[]rune conversions, calls into fmt/errors (formatting and
// error construction allocate by design), and calls that box a non-interface
// value into an interface-typed parameter.
func checkCall(p *Package, call *ast.CallExpr, flag func(token.Pos, string)) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := p.Info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				flag(call.Pos(), "make allocates")
			case "new":
				flag(call.Pos(), "new allocates")
			case "append":
				flag(call.Pos(), "append may grow its backing array")
			}
			return
		}
	}
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		// Type conversion: string↔[]byte and string↔[]rune copy.
		if len(call.Args) == 1 {
			to, from := tv.Type.Underlying(), p.typeUnder(call.Args[0])
			if (isStringType(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isStringType(from)) {
				flag(call.Pos(), "string/byte-slice conversion copies and allocates")
			}
		}
		return
	}
	if fn := calleeFunc(p, call); fn != nil && fn.Pkg() != nil {
		if path := fn.Pkg().Path(); path == "fmt" || path == "errors" {
			flag(call.Pos(), fmt.Sprintf("%s.%s allocates", path, fn.Name()))
			return
		}
	}
	sig, ok := p.typeUnder(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // a slice passed through ...; nothing is boxed here
			}
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := p.Info.TypeOf(arg)
		if at == nil {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if _, isIface := at.Underlying().(*types.Interface); isIface {
			continue
		}
		flag(call.Pos(), fmt.Sprintf("argument %d boxes a %s into an interface parameter", i+1, at))
		return // one finding per call: every boxed argument shares the fix
	}
}

// capturedLocal returns a variable the function literal captures from its
// enclosing declaration — a local, parameter or receiver declared outside
// the literal — or nil when the closure is capture-free. Captured variables
// move the closure (and usually themselves) to the heap. The first captured
// identifier in source order names the finding.
func capturedLocal(p *Package, fd *ast.FuncDecl, lit *ast.FuncLit) *types.Var {
	var captured *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == p.Types.Scope() || v.Parent() == types.Universe {
			return true // package-level vars are sharecheck's concern
		}
		if v.Pos() >= fd.Pos() && v.Pos() < lit.Pos() {
			captured = v
		}
		return true
	})
	return captured
}

// typeUnder returns the underlying type of an expression, or nil.
func (p *Package) typeUnder(e ast.Expr) types.Type {
	t := p.Info.TypeOf(e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// calleeFunc resolves a call's target to a declared *types.Func via its
// ident or selector, or nil for indirect calls through function values.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

func isString(p *Package, e ast.Expr) bool {
	return isStringType(p.typeUnder(e))
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}
