package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"xquec/bench"
)

// config is what one run of one workload needs from the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool   // one round of one unit on 1/8 of the corpus: the smoke test's size
	binDir   string // xquecd and xqueclayers
	workDir  string // scratch space for repository directories
	outDir   string // where a traced run leaves <workload>.trace.json
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// wall holds the timing metrics as the wall clock measured them,
	// before the correction for the host's speed. The suite keeps them
	// beside the reported ones, so that NOISE.json shows what the
	// correction buys.
	wall map[string]float64
}

func newPlan(cfg config) (*plan, error) {
	for _, w := range bench.Workloads {
		if w.Name != cfg.workload {
			continue
		}
		p := &plan{w: w, seed: cfg.seed, scale: w.Scale, rounds: bench.Rounds}
		p.units = max(1, int(math.Round(float64(w.Units)*cfg.seconds/bench.RefSeconds)))
		if cfg.smoke {
			p.scale, p.units, p.rounds = w.Scale/8, 1, 1
		}
		return p, nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// site is one set-up: a repository directory and the daemon serving it.
type site struct {
	dir string
	d   *daemon
}

func (s *site) close() {
	if s.d != nil {
		s.d.stop()
	}
	os.RemoveAll(s.dir)
}

// setUp builds the repositories, starts xquecd over them and replays the
// warm pass; it returns how long that took, not counting prepare.
func setUp(cfg config, p *plan) (*site, time.Duration, []string, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, 0, nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, p.w.Name+"-")
	if err != nil {
		return nil, 0, nil, err
	}
	s := &site{dir: dir}
	start := time.Now()
	if err := p.build(dir); err != nil {
		s.close()
		return nil, 0, nil, fmt.Errorf("build %s: %w", p.w.Name, err)
	}
	built := time.Since(start)
	if p.script == nil {
		if err := p.prepare(); err != nil {
			s.close()
			return nil, 0, nil, err
		}
	}
	start = time.Now()
	s.d, err = startDaemon(cfg.binDir, dir, p.w.Clients, p.args...)
	if err != nil {
		s.close()
		return nil, 0, nil, err
	}
	var failures []string
	var buf bytes.Buffer
	for _, r := range p.warm {
		if rep := s.d.do(r, &buf); !rep.ok {
			failures = append(failures, "warm "+r.label+": "+rep.why)
		}
	}
	return s, built + time.Since(start), failures, nil
}

// sample is one correct reply of a sampled request.
type sample struct {
	label      string
	lat, first time.Duration
}

// round is what replaying the round's script once observed.
type round struct {
	ops      int // operations attempted, by all clients
	served   int // of those, requests the daemon served
	wall     time.Duration
	cpu      time.Duration // the daemon's user+sys time over the round
	ingests  int           // in-process ingests among ops ...
	ingest   time.Duration // ... and the time they took
	samples  []sample
	failures []string
}

// replay runs every client's script to its end, closed loop: a client
// sends its next request when the previous reply has been checked. The
// round ends when the last client does.
func replay(d *daemon, scripts [][]*request) round {
	var out round
	var mu sync.Mutex
	var wg sync.WaitGroup
	cpu0, start := d.cpu(), time.Now()
	for _, script := range scripts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var mine round
			for _, r := range script {
				rep := d.do(r, &buf)
				mine.ops++
				switch {
				case !rep.ok:
					mine.failures = append(mine.failures, r.label+": "+rep.why)
				case r.sampled:
					mine.samples = append(mine.samples, sample{r.label, rep.lat, rep.first})
				}
				if r.kind == kIngest {
					mine.ingests++
					mine.ingest += rep.lat
				} else {
					mine.served++
				}
			}
			mu.Lock()
			out.ops += mine.ops
			out.served += mine.served
			out.ingests += mine.ingests
			out.ingest += mine.ingest
			out.samples = append(out.samples, mine.samples...)
			out.failures = append(out.failures, mine.failures...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.wall, out.cpu = time.Since(start), d.cpu()-cpu0
	return out
}

// qps is the round's throughput. cold_ingest_open's is that of its
// ingests, which this process runs, one after the other, before the
// round's requests: the two halves of that round do unlike work, and a
// rate over both would be neither's.
func (r round) qps() float64 {
	if r.ingests > 0 {
		return float64(r.ingests) / r.ingest.Seconds()
	}
	return float64(r.ops) / r.wall.Seconds()
}

func (r round) cpuMsPerReq() float64 {
	return float64(r.cpu) / float64(time.Millisecond) / float64(r.served)
}

// byLabel groups the rounds' samples by request class.
func byLabel(rounds []round, pick func(sample) time.Duration) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, r := range rounds {
		for _, x := range r.samples {
			out[x.label] = append(out[x.label], pick(x))
		}
	}
	return out
}

func latency(x sample) time.Duration   { return x.lat }
func firstByte(x sample) time.Duration { return x.first }

// classMean is the mean over the request classes of the class's p-th
// percentile, in milliseconds: every class of a mix weighs the same,
// whereas the median of the pooled samples would be the latency of
// whichever class happens to sit in the middle.
func classMean(by map[string][]time.Duration, p float64) float64 {
	var sum float64
	for _, d := range by {
		sum += percentile(d, p)
	}
	return sum / float64(len(by))
}

// pooled is every sample of by in one slice.
func pooled(by map[string][]time.Duration) []time.Duration {
	var out []time.Duration
	for _, d := range by {
		out = append(out, d...)
	}
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n == 0 {
		return math.NaN()
	} else if n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank percentile of d, in milliseconds.
func percentile(d []time.Duration, p float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := max(0, int(math.Ceil(p*float64(len(s))))-1)
	return float64(s[i]) / float64(time.Millisecond)
}

// onReferenceClock is r with every duration as the reference clock
// would have measured it: speed is the host's over the round.
func (r round) onReferenceClock(speed float64) round {
	scale := func(d time.Duration) time.Duration { return time.Duration(float64(d) * speed) }
	r.wall, r.cpu, r.ingest = scale(r.wall), scale(r.cpu), scale(r.ingest)
	r.samples = append([]sample(nil), r.samples...)
	for i, x := range r.samples {
		r.samples[i].lat, r.samples[i].first = scale(x.lat), scale(x.first)
	}
	return r
}

// timings are the timing metrics of a run: medians of the rounds'
// values, percentiles over the samples of all rounds.
func timings(setups []float64, rounds []round) map[string]float64 {
	var qps, cpuMs []float64
	for _, r := range rounds {
		qps, cpuMs = append(qps, r.qps()), append(cpuMs, r.cpuMsPerReq())
	}
	lat := byLabel(rounds, latency)
	return map[string]float64{
		"setup_s":           median(setups),
		"qps":               median(qps),
		"latency_p50_ms":    classMean(lat, 0.50),
		"latency_p90_ms":    percentile(pooled(lat), 0.90),
		"first_byte_p50_ms": classMean(byLabel(rounds, firstByte), 0.50),
		"cpu_ms_per_req":    median(cpuMs),
	}
}

// run is one run of one workload: bench.Rounds rounds, each a set-up
// and one replay of the round's script, every reply checked, and the
// report. The reference kernel is timed between all of them.
func run(cfg config) (*result, error) {
	p, err := newPlan(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceRun(cfg, p)
	}
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	if err := ref.sample(); err != nil {
		return nil, err
	}
	// What the wall clock measured, and the same on the reference clock.
	var wallSetups, setups []float64
	var wallRounds, rounds []round
	var failures []string
	attempted := 0
	oneRound := func() error {
		s, took, warmFailures, err := setUp(cfg, p)
		if err != nil {
			return err
		}
		defer s.close()
		if err := ref.sample(); err != nil {
			return err
		}
		wallSetups, setups = append(wallSetups, took.Seconds()), append(setups, took.Seconds()*ref.speed())
		r := replay(s.d, p.script)
		if err := ref.sample(); err != nil {
			return err
		}
		wallRounds, rounds = append(wallRounds, r), append(rounds, r.onReferenceClock(ref.speed()))
		failures = append(append(failures, warmFailures...), r.failures...)
		if p.gate != nil {
			failures = append(failures, p.gate(s.d)...)
		}
		attempted += len(p.warm) + r.ops
		return nil
	}
	for i := 0; i < p.rounds; i++ {
		if err := oneRound(); err != nil {
			return nil, err
		}
	}
	for i, f := range failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "xquecload: ... and %d more\n", len(failures)-10)
			break
		}
		fmt.Fprintln(os.Stderr, "xquecload: failed:", f)
	}

	values := timings(setups, rounds)
	values["compression_factor"] = p.final.CompressionFactor()
	values["resident_bytes_per_doc_byte"] = float64(p.final.Footprint().Total()) / float64(p.finalXML)
	res := &result{Correct: len(failures) == 0, Attempted: attempted, Failed: len(failures), Metrics: map[string]value{}}
	for _, m := range bench.EndToEnd {
		res.Metrics[m.Name] = value{values[m.Name], m.Unit}
	}
	res.wall = timings(wallSetups, wallRounds)

	var measured time.Duration
	for _, r := range wallRounds {
		measured += r.wall
	}
	fmt.Fprintf(os.Stderr, "xquecload: %s seed %d: %d operations in %d rounds by %d clients, %.2fs measured, set-ups %.2fs, host speed %.2f\n",
		p.w.Name, cfg.seed, attempted, len(rounds), p.w.Clients, measured.Seconds(), wallSetups, ref.samples)
	lat := byLabel(rounds, latency)
	for _, l := range sortedKeys(lat) {
		d := lat[l]
		fmt.Fprintf(os.Stderr, "xquecload:   %-14s n=%-6d p50 %9.3f ms  p90 %9.3f ms\n", l, len(d), percentile(d, 0.5), percentile(d, 0.9))
	}
	return res, nil
}
