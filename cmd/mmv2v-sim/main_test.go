package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
	return runSimEnv(t, bin, nil, args...)
}

// runSimEnv is runSim with extra environment variables.
func runSimEnv(t *testing.T, bin string, env []string, args ...string) (string, int) {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
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

// traceRun is a short pooled run of every protocol, two trials each.
var traceRun = []string{"-protocol", "all", "-density", "10", "-seed", "1", "-trials", "2", "-seconds", "0.2"}

// TestTraceStreamPinned pins the -trace file's bytes: trial-major per
// protocol, emission order within a trial, for any GOMAXPROCS.
func TestTraceStreamPinned(t *testing.T) {
	const (
		wantLines  = 7075
		wantSHA256 = "54c08863a8d172503af2a7f9c8b5383d69c231a010c2ffa3db0a8dc7ac9d6075"
	)
	bin := buildSim(t)
	for _, procs := range []string{"1", "2"} {
		t.Run("GOMAXPROCS="+procs, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "events.jsonl")
			stderr, code := runSimEnv(t, bin, []string{"GOMAXPROCS=" + procs}, append(traceRun, "-trace", path)...)
			if code != 0 {
				t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, stderr)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if lines := bytes.Count(data, []byte("\n")); lines != wantLines || hex.EncodeToString(sum[:]) != wantSHA256 {
				t.Errorf("trace has %d lines, sha256 %x; want %d lines, sha256 %s",
					lines, sum, wantLines, wantSHA256)
			}
		})
	}
}

// TestOutputWriteErrorsFail checks that every output file the command
// cannot write fails the run with the write error instead of losing its
// contents silently.
func TestOutputWriteErrorsFail(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	bin := buildSim(t)
	for _, flag := range []string{"trace", "stats", "series", "memprofile", "cpuprofile"} {
		t.Run(flag, func(t *testing.T) {
			stderr, code := runSim(t, bin, append(traceRun, "-"+flag, "/dev/full")...)
			if code != 1 {
				t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, "write /dev/full") {
				t.Errorf("stderr does not report the write error:\n%s", stderr)
			}
		})
	}
}
