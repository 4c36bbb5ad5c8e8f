package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// metricDef is one reported metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// contract is the part of BENCHMARK.json the command reads. The file is the
// only list of the metrics' names, units and directions: an untraced run
// prints the end-to-end list, a traced run the per-layer list, and a listed
// metric the code does not compute fails the run.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	RunSeconds float64     `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

// loadContract reads BENCHMARK.json and checks that the command knows every
// workload it lists. The command knows one more, clean, which the contract
// leaves out (README.md, "Spread").
func loadContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.Workloads) == 0 {
		return nil, fmt.Errorf("%s lists no workloads", path)
	}
	for _, w := range c.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			return nil, fmt.Errorf("%s lists workload %q, the command knows %s", path, w.Name, strings.Join(workloadNames(), ", "))
		}
	}
	if len(c.EndToEnd) == 0 || len(c.PerLayer) == 0 {
		return nil, fmt.Errorf("%s lists no end_to_end or no per_layer metrics", path)
	}
	return &c, nil
}
