// Command xquec compresses XML documents into queryable XQueC
// repositories and runs XQuery over them.
//
// Usage:
//
//	xquec compress [-o out.xqc] [-alg alm|huffman|hutucker|blob] doc.xml
//	xquec append   [-compact] [-p workers] repo.xqc|set.xqcg doc.xml...
//	xquec query    [-q query | -f query.xq] [-timeout 30s] [-n max]
//	               [-cpuprofile out.pprof] [-explain] repo.xqc|set.xqcg
//	xquec stats    repo.xqc|set.xqcg
//	xquec decompress repo.xqc|set.xqcg   # reconstruct the XML
//
// append ingests each document as a new append segment of the
// repository's segment set, persisting a .xqcg manifest next to the
// repository; -compact folds the set back into a single freshly
// partitioned segment afterwards. query, stats and decompress open a
// single repository or a segment-set manifest alike.
//
// query -explain prints the query's plan instead of evaluating it: on a
// segment set a line naming the store it runs on, then the
// listing of the compiled program that would run — its instructions, each path's
// summary access, each restrict's container access and each join's
// strategy.
//
// Query results stream to stdout as they are produced: the first item
// prints before the full evaluation finishes, and -n stops both the
// output and the evaluation after that many items. A query is evaluated
// serially, on one goroutine.
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
	"io"
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
	case "decompress":
		err = cmdDecompress(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		os.Exit(report(os.Stderr, err))
	}
}

// report writes err to w and returns the exit code it calls for.
func report(w io.Writer, err error) int {
	// Library errors already carry the "xquec: " package prefix.
	fmt.Fprintln(w, "xquec:", strings.TrimPrefix(err.Error(), "xquec: "))
	return exitCode(err)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  xquec compress [-o out.xqc] [-alg alm|huffman|hutucker|blob] [-p workers] [-v] doc.xml
  xquec append   [-compact] [-p workers] repo.xqc|set.xqcg doc.xml...
  xquec query    [-q query | -f query.xq] [-timeout 30s] [-n max] [-cpuprofile file] [-explain] repo.xqc|set.xqcg
  xquec stats    repo.xqc|set.xqcg
  xquec decompress repo.xqc|set.xqcg`)
	os.Exit(2)
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	out := fs.String("o", "", "output repository file (default: input + .xqc)")
	alg := fs.String("alg", "", "default string algorithm (alm, huffman, hutucker, blob)")
	par := fs.Int("p", 0, "compressor worker count (0 = GOMAXPROCS, 1 = serial; output is identical)")
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
	opts := xquec.Options{Parallelism: *par}
	if *alg != "" {
		opts.Plan = &xquec.CompressionPlan{DefaultAlgorithm: *alg}
	}
	db, err := xquec.Compress(doc, opts)
	if err != nil {
		return err
	}
	dst := *out
	if dst == "" {
		dst = in + ".xqc"
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
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the evaluation to this file")
	explain := fs.Bool("explain", false, "print the plan, the compiled program's listing, instead of evaluating")
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
		plan, err := db.Explain(*q)
		if err == nil {
			_, err = io.WriteString(os.Stdout, plan)
		}
		return err
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
	res, err := db.Execute(ctx, *q, xquec.QueryOptions{})
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
	if db.Segmented() {
		fmt.Printf("segments: %d\n", db.Segments())
	}
	fmt.Println("containers:")
	for _, c := range db.Containers() {
		fmt.Printf("  %-60s %-8s %-9s recs=%-7d %dB\n", c.Path, c.Kind, c.Algorithm, c.Records, c.Bytes)
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
