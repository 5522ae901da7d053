// Command mmv2v-lint enforces the repo's determinism and simulation-hygiene
// contract (DESIGN.md §8) with nine stdlib-only static-analysis passes.
//
// Usage:
//
//	mmv2v-lint [-passes list] [-json] [-C dir] [packages]
//
// Package arguments are root-relative directories or ./... patterns
// ("./internal/metrics", "./internal/...", "./..."); with no arguments the
// whole module is analyzed. The exit status is 0 when the tree is clean,
// 1 when findings are reported, and 2 on usage or load errors. Findings are
// printed one per line as "file:line: pass: message".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mmv2v/internal/lint"
)

func main() {
	passes := flag.String("passes", "", "comma-separated subset of passes to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of file:line lines")
	chdir := flag.String("C", "", "module root to analyze (default: nearest go.mod at or above the working directory)")
	list := flag.Bool("list", false, "list the available passes and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mmv2v-lint [flags] [packages]\n\npasses:\n")
		for _, p := range lint.Passes() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", p.Name, p.Doc)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, p := range lint.Passes() {
			fmt.Printf("%-10s %s\n", p.Name, p.Doc)
		}
		return
	}

	root := *chdir
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			fatal(err)
		}
	}

	var opts lint.Options
	if *passes != "" {
		opts.Passes = strings.Split(*passes, ",")
		// Reject unknown pass names before the (slow) whole-module load, so
		// a typo fails in milliseconds with the valid names in hand.
		known := make(map[string]bool)
		var names []string
		for _, p := range lint.Passes() {
			known[p.Name] = true
			names = append(names, p.Name)
		}
		for _, n := range opts.Passes {
			if !known[n] {
				fmt.Fprintf(os.Stderr, "mmv2v-lint: unknown pass %q\nvalid passes: %s\n",
					n, strings.Join(names, ", "))
				flag.Usage()
				os.Exit(2)
			}
		}
	}
	for _, arg := range flag.Args() {
		opts.Dirs = append(opts.Dirs, normalizePattern(arg))
	}

	findings, err := lint.Run(root, opts)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "mmv2v-lint: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}

// normalizePattern turns a go-style package pattern into a root-relative
// directory prefix for lint.Options.Dirs: "./..." → "", "./internal/..." →
// "internal", "./internal/metrics" → "internal/metrics".
func normalizePattern(arg string) string {
	p := filepath.ToSlash(arg)
	p = strings.TrimPrefix(p, "./")
	p = strings.TrimSuffix(p, "...")
	p = strings.TrimSuffix(p, "/")
	if p == "." {
		p = ""
	}
	return p
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("mmv2v-lint: no go.mod found at or above the working directory")
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
