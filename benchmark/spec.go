package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spec is BENCHMARK.json: the contract this program is held to. Reading it
// here, instead of repeating its names in code, means a metric that the
// file lists and a run does not emit is an error of that run.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w (run from the repository root)", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("spec: %s: %w", path, err)
	}
	return &sp, nil
}

func (sp *spec) workloadNames() []string {
	names := make([]string, len(sp.Workloads))
	for i, w := range sp.Workloads {
		names[i] = w.Name
	}
	return names
}

// unit is the unit BENCHMARK.json gives the metric, empty when it has no
// such metric; checkEmitted reports those.
func (sp *spec) unit(name string) string {
	for _, list := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// checkEmitted holds a run to the contract: exactly the end-to-end metrics
// untraced, exactly the per-layer metrics traced.
func (sp *spec) checkEmitted(got map[string]metric, traced bool) error {
	want := sp.EndToEnd
	if traced {
		want = sp.PerLayer
	}
	names := map[string]bool{}
	for _, w := range want {
		names[w.Name] = true
		if _, ok := got[w.Name]; !ok {
			return fmt.Errorf("metric %s of BENCHMARK.json was not measured", w.Name)
		}
	}
	for name := range got {
		if !names[name] {
			return fmt.Errorf("metric %s was measured but this kind of run does not report it", name)
		}
	}
	return nil
}
