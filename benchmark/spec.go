package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spec is BENCHMARK.json: the one declaration of workload and metric
// names, units, directions and bounds. The harness reads it instead of
// repeating it, and refuses to report a run that does not match it.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: workloads, end_to_end and per_layer must not be empty", path)
	}
	return &s, nil
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// declared returns the metrics a run with the given trace flag reports.
func (s *spec) declared(trace bool) []specMetric {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// conform checks that metrics holds exactly the declared names with the
// declared units.
func (s *spec) conform(trace bool, metrics map[string]metricValue) error {
	declared := map[string]bool{}
	for _, m := range s.declared(trace) {
		declared[m.Name] = true
		got, ok := metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %q is declared in BENCHMARK.json but was not measured", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %q has unit %q, BENCHMARK.json declares %q", m.Name, got.Unit, m.Unit)
		}
	}
	for name := range metrics {
		if !declared[name] {
			return fmt.Errorf("metric %q was measured but is not declared in BENCHMARK.json", name)
		}
	}
	return nil
}
