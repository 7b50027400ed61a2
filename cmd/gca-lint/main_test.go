package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for gca-lint: with
// GCA_LINT_ARGS set it runs the command on those arguments instead of
// the tests, so the tests can check real exit statuses.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("GCA_LINT_ARGS"); ok {
		os.Args = append([]string{"gca-lint"}, strings.Fields(args)...)
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// gcaLint runs the command in a child process and returns its exit
// status and standard output.
func gcaLint(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "GCA_LINT_ARGS="+strings.Join(args, " "))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	if cmd.ProcessState.ExitCode() == 2 {
		t.Logf("stderr of gca-lint %s:\n%s", strings.Join(args, " "), stderr.String())
	}
	return cmd.ProcessState.ExitCode(), stdout.String()
}

func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  string
		want int
	}{
		{"clean module", "../../internal/lint/testdata/unused/clean", 0},
		{"unused findings", "../../internal/lint/testdata/unused/bad", 1},
		{"no go.mod", t.TempDir(), 2},
	} {
		code, stdout := gcaLint(t, "-dir", tc.dir)
		if code != tc.want {
			t.Errorf("%s: exit %d, want %d; stdout:\n%s", tc.name, code, tc.want, stdout)
		}
		if (code == 1) != strings.Contains(stdout, "[unused/") {
			t.Errorf("%s: exit %d with stdout:\n%s", tc.name, code, stdout)
		}
	}
}

func TestListNamesUnused(t *testing.T) {
	code, stdout := gcaLint(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, line := range strings.Split(stdout, "\n") {
		if name, _, _ := strings.Cut(line, " "); name == "unused" {
			return
		}
	}
	t.Fatalf("-list does not name unused:\n%s", stdout)
}
