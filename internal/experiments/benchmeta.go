package experiments

import (
	"runtime"
	"runtime/debug"
)

// BenchMeta identifies the environment a benchmark report was produced in.
// Without it, ns/op entries recorded on different machines or toolchains are
// silently incomparable; with it, a regression can be told apart from a
// hardware change.
type BenchMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Commit is the VCS revision baked in by the Go toolchain (empty when the
	// binary was built outside version control); "-dirty" marks uncommitted
	// changes.
	Commit string `json:"commit,omitempty"`
}

// NewBenchMeta samples the current process's environment.
func NewBenchMeta() BenchMeta {
	m := BenchMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if m.Commit != "" && modified {
			m.Commit += "-dirty"
		}
	}
	return m
}
