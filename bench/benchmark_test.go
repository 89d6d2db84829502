package bench

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSON checks that BENCHMARK.json, which the driver reads,
// lists exactly the workloads and metrics of this package's tables,
// stays inside the driver's limits, and carries the bounds the committed
// calibration (NOISE.json) derived: a bound is measured, never typed in.
func TestBenchmarkJSON(t *testing.T) {
	var noise struct {
		Calibration map[string]struct {
			Widest float64 `json:"widest_iqr_over_median"`
			Bound  float64
		}
	}
	nb, err := os.ReadFile("NOISE.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(nb, &noise); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != RefSeconds {
		t.Errorf("run_seconds %d, want RefSeconds %d", bj.RunSeconds, RefSeconds)
	}
	if len(bj.Workloads) != len(Workloads) || len(bj.EndToEnd) != len(EndToEnd) || len(bj.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end and %d per-layer metrics; the tables have %d, %d and %d",
			len(bj.Workloads), len(bj.EndToEnd), len(bj.PerLayer), len(Workloads), len(EndToEnd), len(PerLayer))
	}
	for i, w := range Workloads {
		if got := bj.Workloads[i]; got.Name != w.Name || got.Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v, want %s with a why of at most 200 characters", i, got, w.Name)
		}
	}
	for i, m := range EndToEnd {
		got := bj.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v, want %+v with a bound in (0, 0.25]", i, got, m)
		}
		if c, ok := noise.Calibration[m.Name]; !ok || c.Bound != got.Bound || c.Widest > got.Bound {
			t.Errorf("%s: bound %v, but NOISE.json calibrated %+v (present %v): run -calibrate, do not edit", m.Name, got.Bound, c, ok)
		}
	}
	for i, m := range PerLayer {
		if got := bj.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || len(m.Unit) > 16 {
			t.Errorf("per-layer metric %d: %+v, want %+v", i, got, m)
		}
	}
}
