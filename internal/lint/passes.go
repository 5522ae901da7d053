package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// A Pass is one independently toggleable check of the determinism contract.
type Pass struct {
	Name string
	Doc  string
	run  func(p *Package) []Finding
}

// Passes lists every pass in the order findings are attributed, which is the
// catalog order of DESIGN.md §8.
func Passes() []Pass {
	return []Pass{
		{
			Name: "maprange",
			Doc:  "range over a map is an error unless //mmv2v:sorted justifies order-independence",
			run:  runMapRange,
		},
		{
			Name: "wallclock",
			Doc:  "time.Now/Since/Sleep and timer construction are forbidden outside cmd/ and internal/obs/live (simulation time comes from des)",
			run:  runWallClock,
		},
		{
			Name: "globalrand",
			Doc:  "math/rand is forbidden outside internal/xrand (randomness derives from split streams)",
			run:  runGlobalRand,
		},
		{
			Name: "goroutine",
			Doc:  "go statements and select are forbidden outside internal/sim and internal/obs/live (sim.Runner owns all parallelism; live only reads published snapshots)",
			run:  runGoroutine,
		},
		{
			Name: "floateq",
			Doc:  "==/!= between floating-point operands is an error unless //mmv2v:exact justifies it",
			run:  runFloatEq,
		},
		{
			Name: "errdrop",
			Doc:  "a call whose only result is error must not be a bare expression, defer or go statement",
			run:  runErrDrop,
		},
		{
			Name: "unitcheck",
			Doc:  "physical-units analysis over the internal/units types: no laundering conversions, raw literals into unit parameters, or dimensionally wrong same-unit arithmetic without //mmv2v:unitless",
			run:  runUnitCheck,
		},
		{
			Name: "sharecheck",
			Doc:  "shared mutable state across the goroutine boundary: package-level var writes outside init, loop-variable capture in go closures, and unowned writes from goroutines, unless //mmv2v:shared justifies them",
			run:  runShareCheck,
		},
		{
			Name: "alloccheck",
			Doc:  "hot-path allocation discipline: every allocation site in the call closure of a //mmv2v:hotpath root (make/new, composite literals, append, string concatenation and conversions, interface boxing, closure captures, map writes) must be hoisted or justified with //mmv2v:alloc",
			run:  runAllocCheck,
		},
	}
}

// inspect applies fn to every node of every file in the package.
func inspect(p *Package, fn func(ast.Node)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n != nil {
				fn(n)
			}
			return true
		})
	}
}

// underCmd reports whether the package lives under cmd/.
func underCmd(p *Package) bool {
	return p.Rel == "cmd" || strings.HasPrefix(p.Rel, "cmd/")
}

// underSim reports whether the package is internal/sim or a child of it.
func underSim(p *Package) bool {
	return p.Rel == "internal/sim" || strings.HasPrefix(p.Rel, "internal/sim/")
}

// underLive reports whether the package is internal/obs/live — the sanctioned
// network boundary, exactly that one package (children are not exempt): its
// goroutines only serve published immutable snapshots, and its wall-clock
// reads (ETA) can never reach simulation state.
func underLive(p *Package) bool {
	return p.Rel == "internal/obs/live"
}

// runMapRange flags iteration over map-typed values. Map iteration order is
// randomized per run, so any map range on a path that feeds simulation state
// or rendered output breaks byte-identical reproducibility. A
// //mmv2v:sorted directive on or directly above the statement asserts the
// body is order-independent (pure accumulation into another map, commutative
// integer min/max/sum, ...).
func runMapRange(p *Package) []Finding {
	var out []Finding
	inspect(p, func(n ast.Node) {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return
		}
		t := p.Info.TypeOf(rs.X)
		if t == nil {
			return
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return
		}
		if p.suppressed("sorted", rs.Pos()) {
			return
		}
		out = append(out, finding(p, rs.Pos(), "maprange",
			fmt.Sprintf("range over map %s has randomized order; iterate sorted keys or justify with //mmv2v:sorted", t)))
	})
	return out
}

// wallClockFuncs are the package time functions that read or schedule against
// the wall clock. Simulation time advances only through internal/des.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// runWallClock flags wall-clock reads and timer construction outside cmd/
// (allowed for progress printing only) and internal/obs/live (allowed for
// ETA estimation, which never reaches simulation state). The check is
// transitive over the module call graph: calling a helper that reaches
// time.Now — even one declared in the exempt cmd/ tree — is flagged at the
// call site with the witness chain, so the exemption cannot launder clock
// reads into simulation code. internal/obs/live is additionally sealed in
// the taint propagation (like internal/xrand for globalrand), so calling
// its clock-free API surface stays clean.
func runWallClock(p *Package) []Finding {
	if underCmd(p) || underLive(p) {
		return nil
	}
	var out []Finding
	inspect(p, func(n ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		fn, ok := p.Info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallClockFuncs[fn.Name()] {
			return
		}
		out = append(out, finding(p, id.Pos(), "wallclock",
			fmt.Sprintf("time.%s reads the wall clock; simulation time comes only from internal/des (cmd/ progress printing is exempt)", fn.Name())))
	})
	out = append(out, taintedCalls(p, "wallclock",
		func(m *Module) map[*types.Func]string { return m.wallclockTaint },
		"reaches the wall clock")...)
	return out
}

// taintedCalls emits one finding per call site in p whose callee carries
// taint of the given kind, annotated with the propagation witness chain.
// Call sites are visited in the module's position-sorted function order, so
// output is stable run to run.
func taintedCalls(p *Package, pass string, taintOf func(*Module) map[*types.Func]string, verb string) []Finding {
	if p.Mod == nil {
		return nil
	}
	taint := taintOf(p.Mod)
	var out []Finding
	for _, fi := range p.Mod.order {
		if fi.pkg != p {
			continue
		}
		for _, cs := range fi.calls {
			chain, tainted := taint[cs.callee]
			if !tainted {
				continue
			}
			out = append(out, finding(p, cs.pos, pass,
				fmt.Sprintf("call to %s transitively %s (%s)", cs.callee.Name(), verb, chain)))
		}
	}
	return out
}

// runGlobalRand flags any use of a math/rand function or method outside
// internal/xrand — including rand.New and methods on a leaked *rand.Rand —
// since all randomness must derive from per-entity xrand split streams.
// Like wallclock, the check is transitive: calling a helper that wraps
// math/rand is flagged at the call site. internal/xrand itself is the
// sanctioned boundary and neither seeds nor forwards taint, so consuming
// its split-stream API stays clean.
func runGlobalRand(p *Package) []Finding {
	if p.Rel == "internal/xrand" {
		return nil
	}
	var out []Finding
	inspect(p, func(n ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		fn, ok := p.Info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return
		}
		path := fn.Pkg().Path()
		if path != "math/rand" && path != "math/rand/v2" {
			return
		}
		out = append(out, finding(p, id.Pos(), "globalrand",
			fmt.Sprintf("%s.%s bypasses the seed discipline; derive randomness from internal/xrand split streams", path, fn.Name())))
	})
	out = append(out, taintedCalls(p, "globalrand",
		func(m *Module) map[*types.Func]string { return m.randTaint },
		"draws from math/rand")...)
	return out
}

// runGoroutine flags go statements and select outside internal/sim and
// internal/obs/live: sim.Runner owns all simulation parallelism (its
// slot-per-trial merge is what keeps concurrent output byte-identical), and
// live's network goroutines are sanctioned because they only read published
// immutable snapshots.
func runGoroutine(p *Package) []Finding {
	if underSim(p) || underLive(p) {
		return nil
	}
	var out []Finding
	inspect(p, func(n ast.Node) {
		switch n.(type) {
		case *ast.GoStmt:
			out = append(out, finding(p, n.Pos(), "goroutine",
				"go statement outside internal/sim; route parallelism through sim.Runner's deterministic merge"))
		case *ast.SelectStmt:
			out = append(out, finding(p, n.Pos(), "goroutine",
				"select outside internal/sim; channel races are scheduler-dependent and break reproducibility"))
		}
	})
	return out
}

// runFloatEq flags == and != between floating-point operands. Exact float
// equality is almost always a latent tolerance bug in accumulated SINR/
// throughput math; compare against an epsilon instead, or assert exactness
// with //mmv2v:exact where bit-identity is the point (sentinels, golden
// merges). Comparisons where both operands are compile-time constants are
// exempt.
func runFloatEq(p *Package) []Finding {
	var out []Finding
	inspect(p, func(n ast.Node) {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return
		}
		if !isFloat(p, be.X) && !isFloat(p, be.Y) {
			return
		}
		if isConst(p, be.X) && isConst(p, be.Y) {
			return
		}
		if p.suppressed("exact", be.Pos()) {
			return
		}
		out = append(out, finding(p, be.Pos(), "floateq",
			fmt.Sprintf("%s between floats; use a tolerance compare or justify with //mmv2v:exact", be.Op)))
	})
	return out
}

func isFloat(p *Package, e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isConst(p *Package, e ast.Expr) bool {
	return p.Info.Types[e].Value != nil
}

// runErrDrop flags statements that call a function whose only result is an
// error and discard it: bare expression statements, and defer/go statements,
// where the deferred or spawned call's error vanishes silently. Handle it,
// or assign it away explicitly (_ = f(), defer func() { _ = f() }()) so the
// drop is visible in review.
func runErrDrop(p *Package) []Finding {
	errType := types.Universe.Lookup("error").Type()
	var out []Finding
	inspect(p, func(n ast.Node) {
		var (
			call *ast.CallExpr
			kind string
		)
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			call, _ = stmt.X.(*ast.CallExpr)
			kind = "silently dropped"
		case *ast.DeferStmt:
			call = stmt.Call
			kind = "silently dropped by defer"
		case *ast.GoStmt:
			call = stmt.Call
			kind = "silently dropped by go"
		}
		if call == nil {
			return
		}
		t := p.Info.TypeOf(call)
		if t == nil || !types.Identical(t, errType) {
			return
		}
		out = append(out, finding(p, n.Pos(), "errdrop",
			fmt.Sprintf("result of type error is %s; handle it or assign it explicitly", kind)))
	})
	return out
}

func finding(p *Package, pos token.Pos, pass, msg string) Finding {
	return Finding{Pos: p.relPos(pos), Pass: pass, Msg: msg}
}
