package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// specbenchArgsEnv, when set, makes the test binary run main with these
// space-separated arguments instead of the tests, so a test can observe the
// command's exit code.
const specbenchArgsEnv = "SPECBENCH_TEST_ARGS"

// TestUnknownExperiment: a misspelled -experiment runs nothing and exits 2,
// naming every experiment the command has.
func TestUnknownExperiment(t *testing.T) {
	if args, ok := os.LookupEnv(specbenchArgsEnv); ok {
		os.Args = append([]string{"specbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownExperiment$")
	cmd.Env = append(os.Environ(), specbenchArgsEnv+"=-experiment tabel5")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit %v, want code 2; stderr:\n%s", err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("ran something:\n%s", stdout.String())
	}
	for _, name := range experimentNames() {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("stderr does not name experiment %q:\n%s", name, stderr.String())
		}
	}
}
