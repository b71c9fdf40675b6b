package main

import (
	"fmt"

	"specabsint"
)

// The flag parsers reject unknown values instead of silently falling back to
// a default: a typo in -strategy or -passes must not quietly analyze the
// wrong configuration.

// parseStrategy resolves the -strategy flag value.
func parseStrategy(s string) (specabsint.Strategy, error) {
	switch s {
	case "jit":
		return specabsint.JustInTime, nil
	case "rollback":
		return specabsint.MergeAtRollback, nil
	case "partition":
		return specabsint.PerRollbackBlock, nil
	}
	return specabsint.JustInTime, fmt.Errorf("unknown strategy %q (want jit, rollback or partition)", s)
}

// parsePasses resolves the -passes flag value.
func parsePasses(s string) (bool, error) {
	switch s {
	case "on":
		return true, nil
	case "off":
		return false, nil
	}
	return false, fmt.Errorf("-passes must be on or off, got %q", s)
}
