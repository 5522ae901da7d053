// Package lint implements mmv2v-lint, the repo's determinism and
// simulation-hygiene analyzer (DESIGN.md §8).
//
// The evaluation pipeline's core invariant — runs are byte-identical for any
// -workers value and any seed — is enforced mechanically by nine passes over
// the type-checked source of every non-test package: maprange, wallclock,
// globalrand, goroutine, floateq, errdrop, unitcheck, sharecheck and
// alloccheck. The analyzer is stdlib-only (go/parser,
// go/ast, go/types with go/importer's source importer; no x/tools),
// honoring the repo's no-external-dependency rule.
//
// Source directives suppress a finding when placed on, or on the line
// directly above, the offending statement or field, and must carry a
// one-line justification:
//
//	//mmv2v:sorted   <why the loop body is order-independent>
//	//mmv2v:exact    <why exact float equality is intended>
//	//mmv2v:unitless <why the quantity is genuinely dimensionless>
//	//mmv2v:shared   <why the cross-goroutine write is safe>
//	//mmv2v:alloc    <why the hot-path allocation is amortized or setup-time>
//
// //mmv2v:hotpath <name> is not a suppression but a root marker: placed on
// a function declaration, it seeds alloccheck's call-closure walk.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one violation of the determinism contract.
type Finding struct {
	Pos  token.Position `json:"-"`
	Pass string         `json:"pass"`
	Msg  string         `json:"msg"`

	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// String renders the canonical "file:line: pass: message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pass, f.Msg)
}

// Options configures an analysis run.
type Options struct {
	// Passes selects a subset of pass names; nil or empty runs all passes.
	Passes []string
	// Dirs restricts analysis to packages whose root-relative directory
	// equals, or is under, one of the given slash-separated prefixes
	// ("" matches everything). Loading is still whole-module so
	// type-checking sees every dependency.
	Dirs []string
}

// Run loads the module rooted at root and applies the selected passes,
// returning findings sorted by file, line, column, pass and message.
func Run(root string, opts Options) ([]Finding, error) {
	pkgs, err := Load(root)
	if err != nil {
		return nil, err
	}
	buildModule(pkgs)
	passes, err := selectPasses(opts.Passes)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, p := range pkgs {
		if !dirSelected(p.Rel, opts.Dirs) {
			continue
		}
		for _, pass := range passes {
			out = append(out, pass.run(p)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Msg < b.Msg
	})
	for i := range out {
		out[i].File = out[i].Pos.Filename
		out[i].Line = out[i].Pos.Line
		out[i].Col = out[i].Pos.Column
	}
	return out, nil
}

// selectPasses resolves pass names to passes, rejecting unknown names.
func selectPasses(names []string) ([]Pass, error) {
	all := Passes()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]Pass, len(all))
	for _, p := range all {
		byName[p.Name] = p
	}
	var out []Pass
	for _, n := range names {
		p, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown pass %q (have %s)", n, strings.Join(passNames(all), ", "))
		}
		out = append(out, p)
	}
	return out, nil
}

func passNames(ps []Pass) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// dirSelected reports whether a package directory matches the Dirs filter.
func dirSelected(rel string, dirs []string) bool {
	if len(dirs) == 0 {
		return true
	}
	for _, d := range dirs {
		if d == "" || rel == d || strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}
