package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"specabsint"
)

// TestFlagParsers checks every valid flag value resolves and — the important
// half — that unknown values are reported as errors rather than silently
// mapped to a default configuration.
func TestFlagParsers(t *testing.T) {
	if s, err := parseStrategy("partition"); err != nil || s != specabsint.PerRollbackBlock {
		t.Errorf("parseStrategy(partition) = %v, %v", s, err)
	}
	if on, err := parsePasses("off"); err != nil || on {
		t.Errorf("parsePasses(off) = %v, %v", on, err)
	}

	for _, bad := range []struct {
		name string
		err  error
	}{
		{"strategy", errOf(parseStrategy("speculate-harder"))},
		{"passes", errOf(parsePasses("maybe"))},
	} {
		if bad.err == nil {
			t.Errorf("unknown -%s value accepted", bad.name)
		}
	}
}

func errOf[T any](_ T, err error) error { return err }

// specanalyzeArgsEnv, when set, makes the test binary run main with these
// space-separated arguments instead of the tests, so a test can observe the
// command's exit code.
const specanalyzeArgsEnv = "SPECANALYZE_TEST_ARGS"

// TestCacheGeometryFlags runs the command on -sets values that cannot form
// the 512-line cache and on one that can. A set count of zero would divide
// by zero, and one that does not divide the lines would analyze a smaller
// cache; both must be usage errors (exit 2).
func TestCacheGeometryFlags(t *testing.T) {
	if args, ok := os.LookupEnv(specanalyzeArgsEnv); ok {
		os.Args = append([]string{"specanalyze"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct {
		args   string
		code   int
		stderr string
		stdout string
	}{
		{"-sets 0 -corpus fig2", 2, "cache set count must be positive, got 0", ""},
		{"-sets 3 -corpus fig2", 2, "512 cache lines do not split evenly into 3 sets", ""},
		{"-sets 64 -corpus fig2", 0, "", "64-set/8-way"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCacheGeometryFlags$")
		cmd.Env = append(os.Environ(), specanalyzeArgsEnv+"="+tc.args)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		code := 0
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("%s: %v", tc.args, err)
			}
			code = exit.ExitCode()
		}
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d; stderr:\n%s", tc.args, code, tc.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: stderr lacks %q:\n%s", tc.args, tc.stderr, stderr.String())
		}
		if tc.code == 2 && !strings.Contains(stderr.String(), "-sets") {
			t.Errorf("%s: no usage message on stderr:\n%s", tc.args, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.stdout) {
			t.Errorf("%s: stdout lacks %q:\n%s", tc.args, tc.stdout, stdout.String())
		}
	}
}
