package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildSim compiles the mmv2v-sim binary once per test so the exit codes
// and files under test are exactly what a user's invocation produces.
func buildSim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mmv2v-sim")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runSim executes the binary and returns stderr and the exit code.
func runSim(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
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
	return stderr.String(), code
}

// smallDrive is a scale drive on a tiny grid: ten traffic ticks.
var smallDrive = []string{"-world", "grid", "-drive", "0.05", "-rows", "3", "-cols", "3", "-block", "200", "-grid-vehicles", "50"}

// TestDriveRejectsProtocolOutputs checks that every output the protocol-free
// scale drive cannot produce is refused by name rather than left unwritten.
func TestDriveRejectsProtocolOutputs(t *testing.T) {
	bin := buildSim(t)
	for _, flag := range []string{"stats", "series", "trace", "runlog"} {
		t.Run(flag, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "out")
			stderr, code := runSim(t, bin, append(smallDrive, "-"+flag, path)...)
			if code != 1 {
				t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, "-"+flag) {
				t.Errorf("stderr does not name -%s:\n%s", flag, stderr)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("-%s file exists after the rejected run (stat err %v)", flag, err)
			}
		})
	}
}

// TestDriveWritesProfiles checks that -cpuprofile and -memprofile cover the
// scale drive like any other run.
func TestDriveWritesProfiles(t *testing.T) {
	bin := buildSim(t)
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stderr, code := runSim(t, bin, append(smallDrive, "-cpuprofile", cpu, "-memprofile", mem)...)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, stderr)
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Errorf("profile not written: %v", err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}
}
