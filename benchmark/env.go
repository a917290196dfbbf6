package main

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// environment is what a reader needs to know about the machine and the
// build before comparing this run's numbers with another's.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	LoadAvg1   string `json:"load_avg_1min"`
}

func readEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown", // a checkout without its .git carries no revision
		LoadAvg1:   "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fields := strings.Fields(string(data)); len(fields) > 0 {
			env.LoadAvg1 = fields[0]
		}
	}
	return env
}

// print writes the environment block to standard error; standard output
// ends with the result line and nothing else.
func (e environment) print() {
	line, err := json.Marshal(struct {
		Env environment `json:"environment"`
	}{e})
	if err == nil {
		os.Stderr.Write(append(line, '\n'))
	}
}
