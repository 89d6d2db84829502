// Command xquecload is the repository's benchmark driver: it replays a
// fixed, seeded script of requests against a real xquecd child process
// on a loopback socket, checks every reply, and prints named metrics.
//
//	xquecload --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload; the last line of standard output is the
//	    result as one JSON object (this is what BENCHMARK.json's command
//	    runs, through bench/run.sh, which builds the binaries first)
//	xquecload [-runs N] [-seed S] [-trace 1] -out bench/out/run.json
//	    the whole suite, N times with seeds S..S+N-1
//	xquecload -calibrate N
//	    the suite N ≥ 10 times with one seed; writes the spread of every
//	    metric to bench/NOISE.json and the bounds max(5 %, 3 × IQR/median)
//	    to BENCHMARK.json, and exits nonzero if a timing metric needs
//	    more than 10 %
//	xquecload -compare a.json b.json
//	    two suite files side by side, one row per workload and metric
//
// See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"xquec/bench"
)

func main() {
	// Relative to the root of the checkout, where bench/run.sh starts it.
	cfg := config{binDir: ".bench_build/bin", workDir: ".bench_build/work", outDir: "bench/out"}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload and print its result line (default: the whole suite)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the corpus and of the script")
	flag.Float64Var(&cfg.seconds, "seconds", bench.RefSeconds, "intended length of the measured phase; scales the fixed operation counts")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing the per-layer metrics instead of the end-to-end ones")
	runs := flag.Int("runs", 1, "suite: how many times to run every workload")
	out := flag.String("out", "bench/out/run.json", "suite: where to write the run file")
	layersMD := flag.String("layers-md", "", "suite with -trace 1: generate this file (bench/LAYERS.md) from the traces")
	calibrate := flag.Int("calibrate", 0, "run the suite this many times (at least 10) with one seed, write bench/NOISE.json and the bounds in BENCHMARK.json")
	compare := flag.Bool("compare", false, "compare the two suite files given as arguments")
	flag.Parse()
	cfg.trace = traceFlag != 0
	runtime.GOMAXPROCS(procs())

	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args())
	case cfg.workload != "":
		var res *result
		if res, err = run(cfg); err == nil {
			if res.wall != nil {
				wall, _ := json.Marshal(res.wall)
				fmt.Printf("%s%s\n", wallPrefix, wall)
			}
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	case *calibrate > 0:
		err = calibrateSuite(cfg, *calibrate)
	default:
		seeds := make([]int64, *runs)
		for i := range seeds {
			seeds[i] = cfg.seed + int64(i)
		}
		_, err = suite(cfg, seeds, *out, *layersMD)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xquecload:", err)
		os.Exit(1)
	}
}
