package main

import (
	"math"
	"os/exec"
	"path/filepath"
	"testing"

	"xquec/bench"
)

// TestSmoke runs all six workloads at smoke size against a freshly built
// xquecd, end to end and traced, and checks that every metric of the
// tables is emitted with its unit, finite, and that nothing failed: a
// change to an API the benchmark calls breaks this test, not the next
// performance change.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds xquecd and xqueclayers and replays six workloads")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "xquec/cmd/xquecd", "xquec/bench/cmd/xqueclayers")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, w := range bench.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 7, seconds: bench.RefSeconds, trace: trace, smoke: true,
				binDir: bin, workDir: t.TempDir(), outDir: t.TempDir()}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := bench.EndToEnd
			if trace {
				want = bench.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: %s = %+v (present %v), want a finite value in %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; the driver needs it above 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4),
// which is what the driver judges the benchmark's spread with.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}
