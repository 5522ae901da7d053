package main

import (
	"bytes"
	"encoding/csv"
	"errors"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// execExperiments builds the mmv2v-experiments binary and runs it with
// args. It returns stdout, stderr and the exit code.
func execExperiments(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the CLI and runs it")
	}
	bin := filepath.Join(t.TempDir(), "mmv2v-experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("mmv2v-experiments %v: %v", args, err)
	}
	return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
}

// runExperiments runs mmv2v-experiments with args, failing the test unless
// it exits 0. It returns stdout and stderr.
func runExperiments(t *testing.T, args ...string) (string, string) {
	t.Helper()
	stdout, stderr, code := execExperiments(t, args...)
	if code != 0 {
		t.Fatalf("mmv2v-experiments %v: exit %d\nstderr:\n%s", args, code, stderr)
	}
	return stdout, stderr
}

// TestAllCSVRejected checks that -fig all -format csv, whose figures would
// share one stream under different headers, exits 1 before any figure
// runs, pointing to -fig.
func TestAllCSVRejected(t *testing.T) {
	stdout, stderr, code := execExperiments(t, "-fig", "all", "-format", "csv")
	if code != 1 || stdout != "" || !strings.Contains(stderr, "-fig") {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 1, no output, -fig named on stderr",
			code, stdout, stderr)
	}
}

// TestWarmupCSV checks that -format csv covers the warmup study: the whole
// output parses as CSV under the warmup header.
func TestWarmupCSV(t *testing.T) {
	stdout, _ := runExperiments(t, "-fig", "warmup", "-trials", "1", "-format", "csv")
	rows, err := csv.NewReader(strings.NewReader(stdout)).ReadAll()
	if err != nil {
		t.Fatalf("output is not CSV: %v\n%s", err, stdout)
	}
	if len(rows) < 2 || !reflect.DeepEqual(rows[0], []string{"window", "ocr", "atp", "dtp"}) {
		t.Errorf("rows = %q, want the warmup header and at least one window", rows)
	}
}

// TestProgressLabelsFig8 checks that -progress reports each Fig. 8 cell
// once, as "fig8 M=<m>" for every default M.
func TestProgressLabelsFig8(t *testing.T) {
	_, stderr := runExperiments(t, "-fig", "8", "-trials", "1", "-progress")
	label := regexp.MustCompile(`^\[[^]]+\] (fig8 M=\d+)$`)
	var got []string
	for _, line := range strings.Split(stderr, "\n") {
		if m := label.FindStringSubmatch(line); m != nil {
			got = append(got, m[1])
		}
	}
	sort.Strings(got)
	want := []string{"fig8 M=20", "fig8 M=40", "fig8 M=60", "fig8 M=80"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("progress labels = %q, want %q\nstderr:\n%s", got, want, stderr)
	}
}
