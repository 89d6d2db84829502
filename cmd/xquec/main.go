// Command xquec compresses XML documents into queryable XQueC
// repositories and runs XQuery over them.
//
// Usage:
//
//	xquec compress [-o out.xqc] [-alg alm|huffman|hutucker|blob] doc.xml
//	xquec append   [-compact] [-p workers] repo.xqc|set.xqcg doc.xml...
//	xquec query    [-q query | -f query.xq] [-timeout 30s] [-n max]
//	               [-p workers] [-cpuprofile out.pprof] [-explain] repo.xqc
//	xquec stats    repo.xqc
//	xquec decompress repo.xqc        # reconstruct the XML
//
// append ingests each document as a new append segment of the
// repository's segment set, persisting a .xqcg manifest next to the
// repository; -compact folds the set back into a single freshly
// partitioned segment afterwards.
//
// Query results stream to stdout as they are produced: the first item
// prints before the full evaluation finishes, and -n stops both the
// output and the evaluation after that many items. -p grants the
// evaluator an intra-query worker budget (0 = GOMAXPROCS); results are
// identical at every setting.
//
// Exit codes: 0 success, 1 error, 2 usage, 3 query timeout,
// 4 query parse error, 5 corrupt repository.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"xquec"
)

// Exit codes beyond the conventional 0/1/2, distinct so scripts can
// tell a retryable timeout from a bad query from a bad repository.
const (
	exitTimeout = 3
	exitParse   = 4
	exitCorrupt = 5
)

// exitCode classifies err into the documented exit codes.
func exitCode(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return exitTimeout
	case errors.Is(err, xquec.ErrParse):
		return exitParse
	case errors.Is(err, xquec.ErrCorruptRepository):
		return exitCorrupt
	}
	return 1
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "compress":
		err = cmdCompress(os.Args[2:])
	case "append":
		err = cmdAppend(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "decompress":
		err = cmdDecompress(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		// Library errors already carry the "xquec: " package prefix.
		fmt.Fprintln(os.Stderr, "xquec:", strings.TrimPrefix(err.Error(), "xquec: "))
		os.Exit(exitCode(err))
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  xquec compress [-o out.xqc] [-alg alm|huffman|hutucker|blob] [-p workers] [-shards n] [-v] doc.xml
  xquec append   [-compact] [-p workers] repo.xqc|set.xqcg doc.xml...
  xquec query    [-q query | -f query.xq] [-timeout 30s] [-n max] [-p workers] [-cpuprofile file] [-explain] repo.xqc|set.xqcs|set.xqcg
  xquec stats    repo.xqc|set.xqcs|set.xqcg
  xquec explain  -q query repo.xqc|set.xqcs|set.xqcg
  xquec decompress repo.xqc|set.xqcs|set.xqcg`)
	os.Exit(2)
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	out := fs.String("o", "", "output repository file (default: input + .xqc, or + .xqcs with -shards)")
	alg := fs.String("alg", "", "default string algorithm (alm, huffman, hutucker, blob)")
	par := fs.Int("p", 0, "compressor worker count (0 = GOMAXPROCS, 1 = serial; output is identical)")
	shards := fs.Int("shards", 0, "split into this many shard repositories with a shared dictionary (<2 = single repository)")
	verbose := fs.Bool("v", false, "print per-phase build timings")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("compress needs one input document")
	}
	in := fs.Arg(0)
	doc, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	opts := xquec.Options{Parallelism: *par, Shards: *shards}
	if *alg != "" {
		opts.Plan = &xquec.CompressionPlan{DefaultAlgorithm: *alg}
	}
	db, err := xquec.Compress(doc, opts)
	if err != nil {
		return err
	}
	dst := *out
	if dst == "" {
		if *shards >= 2 {
			dst = in + ".xqcs"
		} else {
			dst = in + ".xqc"
		}
	}
	if err := db.SaveFile(dst); err != nil {
		return err
	}
	st := db.Stats()
	fmt.Printf("%s -> %s\n%s\n", in, dst, st)
	if *verbose {
		b := db.IngestStats()
		fmt.Printf("build: workers=%d parse=%v classify=%v train=%v encode=%v index=%v total=%v\n",
			b.Parallelism, b.Parse, b.Classify, b.Train, b.Encode, b.Index, b.Total())
	}
	return nil
}

// cmdAppend grows a repository in place: each document becomes a new
// append segment sharing the repository's name dictionary, and the set
// is persisted as a .xqcg manifest next to the repository (queries then
// address the manifest — or the bare name via xquecd, which prefers
// it). -compact folds the grown set back into a single segment with the
// cost-model partitioner re-run over the whole corpus.
func cmdAppend(args []string) error {
	fs := flag.NewFlagSet("append", flag.ExitOnError)
	compact := fs.Bool("compact", false, "compact to a single freshly partitioned segment after appending")
	par := fs.Int("p", 0, "compressor worker count (0 = GOMAXPROCS, 1 = serial; output is identical)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("append needs a repository and at least one document (with -compact, a repository alone recompacts)")
	}
	if fs.NArg() < 2 && !*compact {
		return fmt.Errorf("append needs at least one document to append (or -compact)")
	}
	repo := fs.Arg(0)
	db, err := xquec.Open(repo)
	if err != nil {
		return err
	}
	w, err := xquec.NewWriter(db, xquec.Options{Parallelism: *par})
	if err != nil {
		return err
	}
	w.BindFile(strings.TrimSuffix(repo, ".xqc"))
	for _, in := range fs.Args()[1:] {
		doc, err := os.ReadFile(in)
		if err != nil {
			return err
		}
		if err := w.Append(doc); err != nil {
			return fmt.Errorf("%s: %w", in, err)
		}
	}
	if db, err = w.Commit(); err != nil {
		return err
	}
	if *compact {
		if db, err = w.Compact(context.Background()); err != nil {
			return err
		}
	}
	fmt.Printf("%s: %d segments\n%s\n", repo, db.Segments(), db.Stats())
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	q := fs.String("q", "", "query text")
	qf := fs.String("f", "", "file containing the query")
	timeout := fs.Duration("timeout", 0, "abort evaluation after this long (0 = no limit)")
	maxItems := fs.Int("n", 0, "stop after this many result items (0 = all); stops evaluation too")
	par := fs.Int("p", 0, "intra-query worker count (0 = GOMAXPROCS, 1 = serial; results are identical)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the evaluation to this file")
	explain := fs.Bool("explain", false, "print the access plan and compiled program instead of evaluating")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("query needs one repository file")
	}
	if *q == "" && *qf == "" {
		return fmt.Errorf("provide -q or -f")
	}
	if *qf != "" {
		b, err := os.ReadFile(*qf)
		if err != nil {
			return err
		}
		*q = string(b)
	}
	db, err := xquec.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	if *explain {
		return printExplain(db, *q)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	res, err := db.Execute(ctx, *q, xquec.QueryOptions{Parallelism: *par})
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("query exceeded %v: %w", *timeout, err)
		}
		return err
	}
	defer res.Close()

	// Stream: each item is decompressed, rendered and written as it is
	// produced, so the first result appears before evaluation finishes
	// and -n stops the evaluation-side work, not just the printing.
	w := bufio.NewWriter(os.Stdout)
	count := 0
	var buf []byte
	for *maxItems == 0 || count < *maxItems {
		item, ok, err := res.Next()
		if err != nil {
			w.Flush()
			if errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("query exceeded %v: %w", *timeout, err)
			}
			return err
		}
		if !ok {
			break
		}
		buf, err = item.AppendXML(buf[:0])
		if err != nil {
			w.Flush()
			return err
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
		count++
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "-- %d items\n", count)
	return nil
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	q := fs.String("q", "", "query text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *q == "" {
		return fmt.Errorf("explain needs -q and one repository file")
	}
	db, err := xquec.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	return printExplain(db, *q)
}

// printExplain writes the tree-walker access plan followed by the
// compiled stack-VM program (when the query compiles) — the pair
// `xquec query -explain` and `xquec explain` both print.
func printExplain(db *xquec.Database, q string) error {
	plan, err := db.Explain(q)
	if err != nil {
		return err
	}
	fmt.Print(plan)
	prog, err := db.ExplainProgram(q)
	if err != nil {
		return err
	}
	if prog == "" {
		fmt.Println("\ncompiled program: none (tree-walker fallback)")
		return nil
	}
	fmt.Printf("\ncompiled program (engine=%s):\n%s", xquec.EvalEngine(), prog)
	return nil
}

func cmdStats(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("stats needs one repository file")
	}
	db, err := xquec.Open(args[0])
	if err != nil {
		return err
	}
	fmt.Println(db.Stats())
	f := db.Footprint()
	fmt.Printf("resident: %d bytes (access overhead %.2fx)\n", f.Total(), f.AccessOverheadFactor())
	if bits := db.StructureBitsPerNode(); bits > 0 {
		fmt.Printf("structure density: %.2f bits/node\n", bits)
	}
	if db.Sharded() {
		fmt.Printf("shards: %d\n", db.Shards())
	}
	if db.Segmented() {
		fmt.Printf("segments: %d\n", db.Segments())
	}
	fmt.Println("containers:")
	for _, c := range db.Containers() {
		switch {
		case db.Sharded():
			fmt.Printf("  [%03d] %-54s %-8s %-9s recs=%-7d %dB\n",
				c.Shard, c.Path, c.Kind, c.Algorithm, c.Records, c.Bytes)
		case db.Segmented():
			fmt.Printf("  [%03d] %-54s %-8s %-9s recs=%-7d %dB\n",
				c.Segment, c.Path, c.Kind, c.Algorithm, c.Records, c.Bytes)
		default:
			fmt.Printf("  %-60s %-8s %-9s recs=%-7d %dB\n",
				c.Path, c.Kind, c.Algorithm, c.Records, c.Bytes)
		}
	}
	return nil
}

func cmdDecompress(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("decompress needs one repository file")
	}
	db, err := xquec.Open(args[0])
	if err != nil {
		return err
	}
	out, err := db.Decompress()
	if err != nil {
		return err
	}
	os.Stdout.Write(out)
	fmt.Println()
	return nil
}
