package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"xquec/bench"
)

// header says what a suite file was measured on, so that only
// comparable runs are compared.
type header struct {
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NProc      int                `json:"nproc"`
	CPUModel   string             `json:"cpu_model"`
	Seeds      []int64            `json:"seeds"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Workloads  []workloadHeader   `json:"workloads"`
	Bounds     map[string]float64 `json:"bounds,omitempty"` // from BENCHMARK.json, when it exists
}

type workloadHeader struct {
	Name    string  `json:"name"`
	Clients int     `json:"clients"`
	Scale   float64 `json:"xmark_scale"`
	Ops     int     `json:"ops"` // scripted operations of one run
}

// spread summarises one metric of one workload over the runs of a file.
// Q1 and Q3 are what Python's statistics.quantiles(values, n=4) gives.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"iqr_over_median"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

type suiteRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	result
	// Wall is the line a run prints before its result: the timing
	// metrics before the correction for the host's speed. The summary
	// lists them as wall:<metric>.
	Wall map[string]float64 `json:"wall,omitempty"`
}

const wallPrefix = "wall-clock "

// suiteFile is what -out and -calibrate write.
type suiteFile struct {
	Header      header                       `json:"header"`
	Calibration map[string]calibrated        `json:"calibration,omitempty"` // metric -> how its bound came about
	Summary     map[string]map[string]spread `json:"summary"`               // workload -> metric
	Runs        []suiteRun                   `json:"runs,omitempty"`
}

// calibrated records how -calibrate derived one metric's bound.
type calibrated struct {
	Widest   float64 `json:"widest_iqr_over_median"` // over the workloads and over every ten consecutive runs
	Workload string  `json:"on_workload"`
	Rule     float64 `json:"rule_bound"` // max(floor, 3 x widest), rounded up to half a per cent
	Bound    float64 `json:"bound"`      // what BENCHMARK.json got
}

func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// benchmarkJSON is the file the driver reads; -calibrate rewrites it.
type benchmarkJSON struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []nameWhy    `json:"workloads"`
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBounds() map[string]float64 {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil
	}
	var bj benchmarkJSON
	if json.Unmarshal(b, &bj) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range bj.EndToEnd {
		if m.Bound != nil {
			out[m.Name] = *m.Bound
		}
	}
	return out
}

func newHeader(cfg config, seeds []int64) (header, error) {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	h := header{
		Commit: commit, GoVersion: runtime.Version(), GOMAXPROCS: procs(), NProc: runtime.NumCPU(),
		CPUModel: cpuModel(), Seeds: seeds, Seconds: cfg.seconds, Trace: cfg.trace, Bounds: readBounds(),
	}
	for _, w := range bench.Workloads {
		c := cfg
		c.workload = w.Name
		p, err := newPlan(c)
		if err != nil {
			return h, err
		}
		h.Workloads = append(h.Workloads, workloadHeader{w.Name, w.Clients, p.scale, p.w.Ops(p.units)})
	}
	return h, nil
}

// quartiles is Python's statistics.quantiles(v, n=4), the exclusive
// method, which is what the driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func spreadOf(v []float64) spread {
	q1, med, q3 := quartiles(v)
	sp := spread{Median: med, Q1: q1, Q3: q3, N: len(v)}
	if q3 > q1 { // a metric that reads 0 on every run has no spread, not 0/0
		sp.Spread = math.Abs((q3 - q1) / med)
	}
	return sp
}

func summarise(runs []suiteRun) map[string]map[string]spread {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], v.Value)
			units[name] = v.Unit
		}
		for name, v := range r.Wall {
			values[r.Workload]["wall:"+name] = append(values[r.Workload]["wall:"+name], v)
			units["wall:"+name] = r.Metrics[name].Unit
		}
	}
	out := map[string]map[string]spread{}
	for w, ms := range values {
		out[w] = map[string]spread{}
		for name, v := range ms {
			sp := spreadOf(v)
			sp.Unit = units[name]
			out[w][name] = sp
		}
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// suite runs every workload once per seed, each run in a process of its
// own exactly as the driver starts it, and writes the suite file.
func suite(cfg config, seeds []int64, out, layersMD string) (*suiteFile, error) {
	h, err := newHeader(cfg, seeds)
	if err != nil {
		return nil, err
	}
	sf := &suiteFile{Header: h}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	for _, seed := range seeds {
		for _, w := range bench.Workloads {
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", trace)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			run := suiteRun{Workload: w.Name, Seed: seed}
			if err := json.Unmarshal(lines[len(lines)-1], &run.result); err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			if n := len(lines); n > 1 && bytes.HasPrefix(lines[n-2], []byte(wallPrefix)) {
				if err := json.Unmarshal(lines[n-2][len(wallPrefix):], &run.Wall); err != nil {
					return nil, fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
				}
			}
			sf.Runs = append(sf.Runs, run)
			for _, m := range sortedKeys(run.Metrics) {
				fmt.Printf("%-18s seed %-3d %-32s %14.6g %s\n", w.Name, seed, m, run.Metrics[m].Value, run.Metrics[m].Unit)
			}
			fmt.Printf("%-18s seed %-3d %-32s %14.6g ratio\n", w.Name, seed, "failed_share", float64(run.Failed)/float64(run.Attempted))
		}
	}
	sf.Summary = summarise(sf.Runs)
	if err := writeJSON(out, sf); err != nil {
		return nil, err
	}
	if cfg.trace && layersMD != "" {
		if err := writeLayersMD(cfg, layersMD); err != nil {
			return nil, err
		}
	}
	return sf, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// exact metrics are properties of the compressed corpus, not timings:
// they move only with the seed.
var exact = map[string]bool{"compression_factor": true, "resident_bytes_per_doc_byte": true}

// The rule of ISSUE 12 for a metric's regression bound: three times the
// widest spread (IQR/median) any workload showed over the calibration
// runs, and at least the floor. A timing metric whose bound comes out
// above the target cannot tell a regression of a tenth from noise on this
// host; -calibrate says so and exits nonzero. The driver takes no bound
// above its limit, so BENCHMARK.json gets the smaller of the two, and a
// metric whose spread itself is above the limit cannot be end-to-end.
const (
	timingFloor = 0.05
	exactFloor  = 0.005
	target      = 0.10
	driverLimit = 0.25
)

// ruleBound is the rule, rounded up to half a per cent.
func ruleBound(metric string, widest float64) float64 {
	floor := timingFloor
	if exact[metric] {
		floor = exactFloor
	}
	return max(floor, math.Ceil(3*widest*200-1e-9)/200)
}

// calibrateSuite measures the noise floor: the suite n times on
// unchanged code with one seed, so that every run does byte-identical
// work and the spread is the host's and the program's alone, not the
// corpus's. It writes every metric's spread to bench/NOISE.json and the
// bounds the rule derives from them to BENCHMARK.json.
func calibrateSuite(cfg config, n int) error {
	if n < 10 {
		return fmt.Errorf("-calibrate needs at least 10 runs, got %d", n)
	}
	cfg.trace = false
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = cfg.seed
	}
	sf, err := suite(cfg, seeds, "bench/out/calibrate.json", "")
	if err != nil {
		return err
	}
	// The driver judges ten runs at a time, so what a bound must cover is
	// the widest spread any ten consecutive runs showed.
	bounds := map[string]float64{}
	sf.Calibration = map[string]calibrated{}
	var aboveTarget, aboveLimit []string
	for _, m := range bench.EndToEnd {
		c := calibrated{}
		for _, w := range bench.Workloads {
			var v []float64
			for _, r := range sf.Runs {
				if r.Workload == w.Name {
					v = append(v, r.Metrics[m.Name].Value)
				}
			}
			for i := 0; i+10 <= len(v); i++ {
				if s := spreadOf(v[i : i+10]).Spread; s > c.Widest {
					c.Widest, c.Workload = s, w.Name
				}
			}
		}
		c.Rule = ruleBound(m.Name, c.Widest)
		c.Bound = min(c.Rule, driverLimit)
		if note := fmt.Sprintf("%s: the rule gives %.1f %% (IQR/median %.1f %% on %s)", m.Name, 100*c.Rule, 100*c.Widest, c.Workload); c.Widest > driverLimit {
			aboveLimit = append(aboveLimit, note)
		} else if c.Rule > target && !exact[m.Name] {
			aboveTarget = append(aboveTarget, note)
		}
		sf.Calibration[m.Name], bounds[m.Name] = c, c.Bound
	}
	// The driver does not hold setup_s to its spread and asks that it
	// get the largest bound.
	for name, b := range bounds {
		if !exact[name] {
			bounds["setup_s"] = max(bounds["setup_s"], b)
		}
	}
	setup := sf.Calibration["setup_s"]
	setup.Bound = bounds["setup_s"]
	sf.Calibration["setup_s"] = setup
	sf.Header.Bounds = bounds
	sf.Runs = nil // NOISE.json keeps the summary; the runs stay in bench/out
	if err := writeJSON("bench/NOISE.json", sf); err != nil {
		return err
	}
	if len(aboveLimit) > 0 {
		return fmt.Errorf("BENCHMARK.json not written: too noisy to be end-to-end metrics (spread above the driver's largest bound, %.0f %%):\n  %s",
			100*driverLimit, strings.Join(aboveLimit, "\n  "))
	}
	if err := writeBenchmarkJSON(bounds); err != nil {
		return err
	}
	if len(aboveTarget) > 0 {
		return fmt.Errorf("BENCHMARK.json written with bounds of at most %.0f %%, but these timing metrics need more than the %.0f %% they should:\n  %s",
			100*driverLimit, 100*target, strings.Join(aboveTarget, "\n  "))
	}
	return nil
}

func writeBenchmarkJSON(bounds map[string]float64) error {
	bj := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: bench.RefSeconds,
	}
	for _, w := range bench.Workloads {
		bj.Workloads = append(bj.Workloads, nameWhy{w.Name, w.Why})
	}
	for _, m := range bench.EndToEnd {
		b := bounds[m.Name]
		bj.EndToEnd = append(bj.EndToEnd, jsonMetric{m.Name, m.Unit, m.Better, &b})
	}
	for _, m := range bench.PerLayer {
		bj.PerLayer = append(bj.PerLayer, jsonMetric{m.Name, m.Unit, m.Better, nil})
	}
	return writeJSON("BENCHMARK.json", bj)
}

// compareFiles prints two suite files side by side. It refuses files
// measured on different CPU models or with different operation counts,
// calls a metric unresolved, not unchanged, when either side's spread
// exceeds the metric's bound, and says so when b is worse by more than
// either side's spread though by less than the bound.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two suite files")
	}
	var files [2]suiteFile
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := files[0], files[1]
	if a.Header.CPUModel != b.Header.CPUModel {
		return fmt.Errorf("not comparable: CPU models differ (%q, %q)", a.Header.CPUModel, b.Header.CPUModel)
	}
	if fmt.Sprint(a.Header.Workloads) != fmt.Sprint(b.Header.Workloads) || a.Header.GOMAXPROCS != b.Header.GOMAXPROCS {
		return fmt.Errorf("not comparable: operation counts, clients, corpus scale or GOMAXPROCS differ")
	}
	bounds := readBounds()
	if bounds == nil {
		bounds = a.Header.Bounds
	}
	fmt.Printf("%-18s %-28s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "b worse", "bound", "verdict")
	regressions := 0
	for _, w := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			sa, sb := a.Summary[w.Name][m.Name], b.Summary[w.Name][m.Name]
			bound, ok := bounds[m.Name]
			if !ok {
				return fmt.Errorf("no bound for %s: run from a checkout with BENCHMARK.json", m.Name)
			}
			// worse > 0 means b is worse than a by that share of a.
			worse := (sb.Median - sa.Median) / sa.Median
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "unchanged"
			switch {
			case sa.N < 3 || sb.N < 3:
				verdict = "unresolved (fewer than 3 runs)"
			case max(sa.Spread, sb.Spread) > bound:
				verdict = "unresolved (spread exceeds bound)"
			case worse > bound:
				verdict = "REGRESSION"
				regressions++
			case -worse > max(sa.Spread, sb.Spread):
				verdict = "better"
			case worse > max(sa.Spread, sb.Spread):
				verdict = "worse than the spread, within the bound"
			}
			fmt.Printf("%-18s %-28s %14.6g %14.6g %+8.1f%% %6.1f%%  %s\n", w.Name, m.Name, sa.Median, sb.Median, 100*worse, 100*bound, verdict)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions", regressions)
	}
	return nil
}
