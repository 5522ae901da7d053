package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPassesOnFixtures runs each pass against its fixture module and checks
// the exact set of findings — including that directive suppression and the
// cmd//xrand/sim allowlists keep their sites clean.
func TestPassesOnFixtures(t *testing.T) {
	cases := []struct {
		pass string
		want []string // "file:line: pass" for every expected finding, sorted
	}{
		{
			pass: "maprange",
			want: []string{
				"pkg/pkg.go:11: maprange",
			},
		},
		{
			// Lines 15 and 20 are the transitive upgrade: call sites of
			// helpers that reach time.Now through the cmd/ tree
			// (clockutil.NowSec) or another internal package
			// (clocked.Stamp); the untainted clocked.Scale call stays
			// clean. internal/obs/live is exempt and sealed (caller.Watch
			// consuming it stays clean), but the allowlist is exactly that
			// package: its parent internal/obs still fires (obs.go:9 ×2).
			pass: "wallclock",
			want: []string{
				"internal/caller/caller.go:15: wallclock",
				"internal/caller/caller.go:20: wallclock",
				"internal/clocked/clocked.go:10: wallclock",
				"internal/clocked/clocked.go:11: wallclock",
				"internal/clocked/clocked.go:16: wallclock",
				"internal/clocked/clocked.go:17: wallclock",
				"internal/obs/obs.go:9: wallclock",
				"internal/obs/obs.go:9: wallclock",
			},
		},
		{
			// Line 14 is the transitive upgrade: the call site of a helper
			// wrapping math/rand; consuming the sealed internal/xrand
			// boundary (consumer.Split) stays clean.
			pass: "globalrand",
			want: []string{
				"internal/consumer/consumer.go:14: globalrand",
				"internal/seeded/seeded.go:10: globalrand",
				"internal/seeded/seeded.go:16: globalrand",
				"internal/seeded/seeded.go:16: globalrand",
				"internal/seeded/seeded.go:17: globalrand",
			},
		},
		{
			// internal/obs/live's go + select are exempt; the allowlist is
			// exactly that package, so its parent internal/obs still fires.
			pass: "goroutine",
			want: []string{
				"internal/obs/obs.go:7: goroutine",
				"internal/spawner/spawner.go:7: goroutine",
				"internal/spawner/spawner.go:8: goroutine",
			},
		},
		{
			pass: "floateq",
			want: []string{
				"pkg/pkg.go:8: floateq",
				"pkg/pkg.go:13: floateq",
			},
		},
		{
			pass: "errdrop",
			want: []string{
				"pkg/pkg.go:20: errdrop",
				"pkg/pkg.go:44: errdrop",
				"pkg/pkg.go:56: errdrop",
			},
		},
		{
			pass: "unitcheck",
			want: []string{
				"pkg/pkg.go:16: unitcheck",
				"pkg/pkg.go:21: unitcheck",
				"pkg/pkg.go:47: unitcheck",
				"pkg/pkg.go:52: unitcheck",
				"pkg/pkg.go:57: unitcheck",
				"pkg/pkg.go:67: unitcheck",
				"pkg/pkg.go:86: unitcheck",
				"pkg/pkg.go:91: unitcheck",
			},
		},
		{
			// global.go: package-level writes outside init (init and the
			// justified knob stay clean); spawn.go:13: a captured-slice
			// write plus two loop-variable captures on one closure line
			// (FanSafe's argument-passing and the fixture's internal/sim
			// slot merge stay clean). internal/obs/live's serving-goroutine
			// write is exempt from check 3; the allowlist is exactly that
			// package, so the same shape in its parent internal/obs fires.
			pass: "sharecheck",
			want: []string{
				"internal/global/global.go:14: sharecheck",
				"internal/global/global.go:24: sharecheck",
				"internal/obs/obs.go:10: sharecheck",
				"internal/spawn/spawn.go:13: sharecheck",
				"internal/spawn/spawn.go:13: sharecheck",
				"internal/spawn/spawn.go:13: sharecheck",
			},
		},
		{
			// Tick is the hot root: one finding per detector (30–43), plus 44
			// where a bare //mmv2v:alloc without justification does not
			// suppress, plus grow's make at 62 carrying the depth-two witness
			// chain "Tick → helper → grow". helper's justified append, the
			// interface-dispatched DynAlloc.Step, and the unreached Cold stay
			// clean.
			pass: "alloccheck",
			want: []string{
				"pkg/pkg.go:30: alloccheck",
				"pkg/pkg.go:31: alloccheck",
				"pkg/pkg.go:32: alloccheck",
				"pkg/pkg.go:33: alloccheck",
				"pkg/pkg.go:34: alloccheck",
				"pkg/pkg.go:35: alloccheck",
				"pkg/pkg.go:36: alloccheck",
				"pkg/pkg.go:37: alloccheck",
				"pkg/pkg.go:38: alloccheck",
				"pkg/pkg.go:39: alloccheck",
				"pkg/pkg.go:40: alloccheck",
				"pkg/pkg.go:41: alloccheck",
				"pkg/pkg.go:42: alloccheck",
				"pkg/pkg.go:43: alloccheck",
				"pkg/pkg.go:44: alloccheck",
				"pkg/pkg.go:62: alloccheck",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.pass, func(t *testing.T) {
			root := filepath.Join("testdata", tc.pass)
			findings, err := Run(root, Options{Passes: []string{tc.pass}})
			if err != nil {
				t.Fatalf("Run(%s): %v", root, err)
			}
			var got []string
			for _, f := range findings {
				got = append(got, fmt.Sprintf("%s:%d: %s", f.Pos.Filename, f.Pos.Line, f.Pass))
			}
			if !equalStrings(got, tc.want) {
				t.Errorf("findings mismatch\n got: %v\nwant: %v", got, tc.want)
			}

			// Findings must be reproducible verbatim across runs.
			again, err := Run(root, Options{Passes: []string{tc.pass}})
			if err != nil {
				t.Fatalf("second Run(%s): %v", root, err)
			}
			for i := range findings {
				if i < len(again) && findings[i].String() != again[i].String() {
					t.Errorf("run-to-run drift at %d: %q vs %q", i, findings[i], again[i])
				}
			}
			if len(findings) != len(again) {
				t.Errorf("run-to-run count drift: %d vs %d", len(findings), len(again))
			}
		})
	}
}

// TestAllPassesTogether runs every pass at once over one fixture to confirm
// pass selection defaults to all and findings stay sorted by position.
func TestAllPassesTogether(t *testing.T) {
	findings, err := Run(filepath.Join("testdata", "floateq"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Errorf("findings out of order: %q before %q", a, b)
		}
	}
}

// TestUnknownPass rejects pass names that do not exist.
func TestUnknownPass(t *testing.T) {
	_, err := Run(filepath.Join("testdata", "floateq"), Options{Passes: []string{"nope"}})
	if err == nil || !strings.Contains(err.Error(), "unknown pass") {
		t.Fatalf("want unknown-pass error, got %v", err)
	}
}

// TestDirFilter restricts analysis to a directory subtree.
func TestDirFilter(t *testing.T) {
	root := filepath.Join("testdata", "wallclock")
	findings, err := Run(root, Options{Passes: []string{"wallclock"}, Dirs: []string{"cmd"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("cmd/ subtree should be clean, got %v", findings)
	}
	findings, err = Run(root, Options{Passes: []string{"wallclock"}, Dirs: []string{"internal/clocked"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 4 {
		t.Errorf("internal/clocked should have 4 findings, got %v", findings)
	}
}

// TestLoadErrors covers the loader's failure paths: a syntax-error file, an
// import of a module-internal package with no source directory, and an
// import cycle must each come back as a load error — the cmd's exit-2
// contract — never as a panic or as findings.
func TestLoadErrors(t *testing.T) {
	cases := []struct {
		fixture string
		want    string // substring of the load error
	}{
		{"syntax", "expected"},
		{"missing", "no source directory"},
		{"cycle", "import cycle"},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			root := filepath.Join("testdata", "broken", tc.fixture)
			findings, err := Run(root, Options{})
			if err == nil {
				t.Fatalf("Run(%s) = %v findings, want load error", root, findings)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run(%s) error %q does not mention %q", root, err, tc.want)
			}
		})
	}
}

// TestRepoIsClean is the determinism meta-test: the analyzer runs over the
// real repository source, so a contract regression in any package fails
// `go test ./...` — not just the separate `make lint` gate. DESIGN.md §8.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; covered by make lint in short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}
	findings, err := Run(root, Options{})
	if err != nil {
		t.Fatalf("Run over repo: %v", err)
	}
	if len(findings) != 0 {
		var lines []string
		for _, f := range findings {
			lines = append(lines, f.String())
		}
		t.Errorf("determinism contract violated:\n%s", strings.Join(lines, "\n"))
	}
}

// copyModule copies a module's go.mod and .go files into dst, preserving
// directory structure and skipping VCS, hidden, and testdata trees.
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if rel != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// injectBefore inserts stmt on its own line immediately before the first
// occurrence of marker in file, inheriting the marker's indentation.
func injectBefore(t *testing.T, file, marker, stmt string) {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), marker) {
		t.Fatalf("%s: no %q", file, marker)
	}
	mutated := strings.Replace(string(data), marker, stmt+"\n\t"+marker, 1)
	if err := os.WriteFile(file, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestAllocCheckMutation is the allocation-discipline mutation table: an
// allocation construct injected into a transitively hot fixture function
// must add exactly one finding — unless it carries a justified //mmv2v:alloc
// directive, in which case the finding count must not move.
func TestAllocCheckMutation(t *testing.T) {
	const baseline = 16 // fixture findings with no mutation
	cases := []struct {
		name  string
		stmt  string // injected before helper's grow(s) call; "" = clean
		extra int
	}{
		{"clean", "", 0},
		{"injected-make", "leak := make([]int, n)\n\t_ = leak", 1},
		{"boxing", "box(n)", 1},
		{"closure-capture", "g := func() int { return n }\n\t_ = g", 1},
		{"directive-suppressed", "leak := make([]int, n) //mmv2v:alloc one-time growth on the first tick\n\t_ = leak", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			copyModule(t, filepath.Join("testdata", "alloccheck"), tmp)
			if tc.stmt != "" {
				injectBefore(t, filepath.Join(tmp, "pkg", "pkg.go"), "grow(s)", tc.stmt)
			}
			findings, err := Run(tmp, Options{Passes: []string{"alloccheck"}})
			if err != nil {
				t.Fatal(err)
			}
			if len(findings) != baseline+tc.extra {
				var lines []string
				for _, f := range findings {
					lines = append(lines, f.String())
				}
				t.Errorf("findings = %d, want %d:\n%s", len(findings), baseline+tc.extra, strings.Join(lines, "\n"))
			}
		})
	}
}

// TestRepoHotAllocIsCaught is the deliberate-injection meta-test for the
// allocation contract: a copy of the real repository with one make planted
// inside world.Refresh must fail alloccheck with exactly that finding,
// proving the pass — and therefore TestRepoIsClean and make lint — would
// catch a real allocation regression on the pinned hot path.
func TestRepoHotAllocIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	copyModule(t, root, tmp)
	injectBefore(t, filepath.Join(tmp, "internal", "world", "world.go"),
		"w.obsRefreshes.Inc()", "hotLeak := make([]int, w.n)\n\t_ = hotLeak")
	findings, err := Run(tmp, Options{Passes: []string{"alloccheck"}})
	if err != nil {
		t.Fatal(err)
	}
	var hit bool
	for _, f := range findings {
		if strings.Contains(f.Msg, "make allocates on hot path (Refresh)") {
			hit = true
		} else {
			t.Errorf("unexpected extra finding: %s", f)
		}
	}
	if !hit {
		t.Error("injected make inside world.Refresh produced no alloccheck finding")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
