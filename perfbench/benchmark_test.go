package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json, which names
// the metrics for whoever runs the benchmark, in step with the tables the
// benchmark prints from.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			better := "lower"
			if w.higher {
				better = "higher"
			}
			if m.Name != w.name || m.Unit != w.unit || m.Better != better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s %s, the benchmark %s %s %s", kind, i, m.Name, m.Unit, m.Better, w.name, w.unit, better)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s: malformed name or unit %q %q", kind, m.Name, m.Unit)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: %s has bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if len(b.Workloads) != len(runners) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(runners))
	}
	for _, w := range b.Workloads {
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("workload %q is not one the benchmark runs", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why is %d characters", w.Name, len(w.Why))
		}
	}
}

func TestParseTS(t *testing.T) {
	for s, want := range map[string]int64{"0.000": 0, "12.345": 12345, "7": 7000, "1234567.001": 1234567001} {
		if got, err := parseTS(s); err != nil || got != want {
			t.Errorf("parseTS(%q) = %d, %v; want %d", s, got, err, want)
		}
	}
	if _, err := parseTS("1.23"); err == nil {
		t.Error("parseTS accepted a two-digit fraction")
	}
}

func TestSpanGroupSelfTimeAndPartition(t *testing.T) {
	g := spanGroup{
		parent: interval{"request", 100, 200},
		children: []interval{
			{"encode", 100, 120}, {"write", 120, 150}, {"wait", 150, 190}, {"decode", 190, 200},
		},
	}
	if !g.partitions() || g.selfTime() != 0 {
		t.Errorf("tiled request: partitions %v, self %d", g.partitions(), g.selfTime())
	}
	gap := spanGroup{
		parent:   interval{"pipeline", 0, 100},
		children: []interval{{"a", 0, 40}, {"b", 30, 60}, {"c", 70, 100}},
	}
	if gap.partitions() {
		t.Error("overlapping and gapped children read as a partition")
	}
	if got := gap.covered(); got != 90 {
		t.Errorf("covered = %d, want 90 (union of [0,60) and [70,100))", got)
	}
	if got := gap.selfTime(); got != 10 {
		t.Errorf("self = %d, want 10", got)
	}
}
