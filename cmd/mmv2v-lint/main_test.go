package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildLint compiles the mmv2v-lint binary once per test run so the exit
// codes under test are exactly what CI and make lint observe.
func buildLint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mmv2v-lint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runLint executes the binary and returns stdout, stderr and the exit code.
func runLint(t *testing.T, bin string, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("run %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

// fixture resolves a module under internal/lint/testdata.
func fixture(parts ...string) string {
	return filepath.Join(append([]string{"..", "..", "internal", "lint", "testdata"}, parts...)...)
}

// TestJSONGolden pins the -json schema byte-for-byte: an array of findings
// with pass/msg/file/line/col, root-relative slash paths, sorted by
// position, exit code 1 because findings exist. The sharecheck rows pin
// the interprocedural suite's messages (directive suppression keeps the
// justified sites out of the arrays), and the wallclock_transitive rows
// pin the taint witness chains — rerun twice to hold run-to-run byte
// stability.
func TestJSONGolden(t *testing.T) {
	bin := buildLint(t)
	cases := []struct {
		golden string
		args   []string
	}{
		{"errdrop.json", []string{"-C", fixture("errdrop"), "-passes", "errdrop", "-json", "./..."}},
		{"sharecheck.json", []string{"-C", fixture("sharecheck"), "-passes", "sharecheck", "-json", "./..."}},
		{"wallclock_transitive.json", []string{"-C", fixture("wallclock"), "-passes", "wallclock", "-json", "./internal/caller"}},
		{"alloccheck.json", []string{"-C", fixture("alloccheck"), "-passes", "alloccheck", "-json", "./..."}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 2; run++ {
				stdout, _, code := runLint(t, bin, tc.args...)
				if code != 1 {
					t.Fatalf("run %d: exit code = %d, want 1 (findings present)", run, code)
				}
				if stdout != string(golden) {
					t.Errorf("run %d: -json output drifted from testdata/%s\n got:\n%s\nwant:\n%s", run, tc.golden, stdout, golden)
				}
			}
		})
	}
}

// TestJSONEmptyArray keeps a clean tree's -json output a parseable empty
// array, never null.
func TestJSONEmptyArray(t *testing.T) {
	bin := buildLint(t)
	stdout, _, code := runLint(t, bin, "-C", fixture("errdrop"), "-passes", "floateq", "-json", "./...")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (clean)", code)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean -json output = %q, want empty array", stdout)
	}
}

// TestExitCodes pins the documented contract: 0 clean, 1 findings, 2 on
// load or usage errors (README "Lint").
func TestExitCodes(t *testing.T) {
	bin := buildLint(t)
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean", []string{"-C", fixture("errdrop"), "-passes", "floateq", "./..."}, 0},
		{"findings", []string{"-C", fixture("errdrop"), "-passes", "errdrop", "./..."}, 1},
		{"syntax error", []string{"-C", fixture("broken", "syntax"), "./..."}, 2},
		{"missing package", []string{"-C", fixture("broken", "missing"), "./..."}, 2},
		{"import cycle", []string{"-C", fixture("broken", "cycle"), "./..."}, 2},
		{"unknown pass", []string{"-C", fixture("errdrop"), "-passes", "nope", "./..."}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, code := runLint(t, bin, tc.args...)
			if code != tc.want {
				t.Errorf("exit code = %d, want %d (stderr: %s)", code, tc.want, stderr)
			}
			if tc.want == 2 && strings.TrimSpace(stderr) == "" {
				t.Errorf("exit 2 with empty stderr; load/usage errors must be reported")
			}
		})
	}
}

// TestUnknownPassUsage pins the unknown-pass contract beyond the exit code:
// the name is rejected before any load work, stderr names the offender and
// every valid pass, and the usage listing follows.
func TestUnknownPassUsage(t *testing.T) {
	bin := buildLint(t)
	_, stderr, code := runLint(t, bin, "-C", fixture("errdrop"), "-passes", "errdrop,nope", "./...")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	for _, want := range []string{
		`unknown pass "nope"`,
		"valid passes:",
		"usage: mmv2v-lint",
		"maprange", "wallclock", "globalrand", "goroutine", "floateq",
		"errdrop", "unitcheck", "sharecheck", "alloccheck",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
}
