package main

import (
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
