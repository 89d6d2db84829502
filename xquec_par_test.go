package xquec

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"xquec/internal/algebra"
	"xquec/internal/datagen"
)

// parDB builds a repository large enough to exercise the partitioned
// operators: many <e> entries with prose values and several sections so
// //e predicates fan out over multiple containers.
func parDB(t testing.TB) *Database {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<doc>")
	for sec := 0; sec < 3; sec++ {
		fmt.Fprintf(&sb, "<s%d>", sec)
		for i := 0; i < 120; i++ {
			fmt.Fprintf(&sb, "<e><k>key%03d</k><v>value %d body %d</v></e>", i, i%37, i%11)
		}
		fmt.Fprintf(&sb, "</s%d>", sec)
	}
	sb.WriteString("</doc>")
	db, err := Compress([]byte(sb.String()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

var parQueries = []string{
	`count(//e[v = "value 3 body 5"])`,
	`//e[v != "value 0 body 0"]/k/text()`,
	`FOR $e IN //e WHERE $e/k = "key007" RETURN $e/v/text()`,
	`count(/doc/s1/e)`,
	`(count(//e), count(//k))`,
}

// lowParFloors drops the algebra partition floor for the test's
// duration so the modest fixture actually splits.
func lowParFloors(t testing.TB) {
	old := algebra.MinRecordsPerPartition
	algebra.MinRecordsPerPartition = 2
	t.Cleanup(func() { algebra.MinRecordsPerPartition = old })
}

// render streams a query's results through WriteXML, the same path the
// CLI and server use.
func render(db *Database, q string, par int) ([]byte, error) {
	res, err := db.Execute(context.Background(), q, QueryOptions{Parallelism: par})
	if err != nil {
		return nil, err
	}
	defer res.Close()
	var buf bytes.Buffer
	if _, err := res.WriteXML(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TestQueryParallelismByteIdentical checks the public contract: every
// Parallelism setting streams byte-identical output.
func TestQueryParallelismByteIdentical(t *testing.T) {
	lowParFloors(t)
	db := parDB(t)
	for _, q := range parQueries {
		want, err := render(db, q, 1)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for _, par := range []int{0, 2, 4, runtime.GOMAXPROCS(0)} {
			got, err := render(db, q, par)
			if err != nil {
				t.Fatalf("%s par=%d: %v", q, par, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s par=%d differs:\npar:    %q\nserial: %q", q, par, got, want)
			}
		}
	}
}

// TestConcurrentParallelQueries hammers one shared Database from many
// goroutines, each running parallel (par>1) queries, and checks every
// streamed result against the serial baseline. Run under -race this is
// the data-race canary for the intra-query worker pool.
func TestConcurrentParallelQueries(t *testing.T) {
	lowParFloors(t)
	db := parDB(t)
	want := make(map[string][]byte, len(parQueries))
	for _, q := range parQueries {
		w, err := render(db, q, 1)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want[q] = w
	}

	const goroutines = 16
	const iters = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := parQueries[(g+i)%len(parQueries)]
				par := 2 + (g+i)%3
				got, err := render(db, q, par)
				if err != nil {
					errc <- fmt.Errorf("%s par=%d: %v", q, par, err)
					return
				}
				if !bytes.Equal(got, want[q]) {
					errc <- fmt.Errorf("%s par=%d: output differs from serial", q, par)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestPreparedRunWithParallelism checks the prepared-query path carries
// the option through.
func TestPreparedRunWithParallelism(t *testing.T) {
	lowParFloors(t)
	db := parDB(t)
	prep, err := db.Prepare(parQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	var outs [][]byte
	for _, par := range []int{1, 4} {
		res, err := prep.Execute(context.Background(), QueryOptions{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := res.WriteXML(&buf); err != nil {
			t.Fatal(err)
		}
		res.Close()
		outs = append(outs, buf.Bytes())
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatalf("prepared parallel output differs: %q vs %q", outs[0], outs[1])
	}
}

// TestPreparedCodeAutomataShared: one prepared statement whose contains
// and ends-with run on ALM codes — the automata built at Prepare and
// shared — executed from many goroutines at once, at several worker
// counts with the record range split, streams what a serial execution
// does.
func TestPreparedCodeAutomataShared(t *testing.T) {
	lowParFloors(t)
	db, err := Compress(datagen.XMark(datagen.XMarkConfig{Scale: 0.5, Seed: 2}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const q = `FOR $i IN /site//item WHERE contains($i/description, "the") AND ends-with($i/description, ".") RETURN $i/name/text()`
	prep, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if dis := prep.Disassemble(); strings.Count(dis, "matching on compressed bytes") != 12 {
		t.Fatalf("the two restricts do not read the six description containers on their codes:\n%s", dis)
	}
	run := func(par int) ([]byte, error) {
		res, err := prep.Execute(context.Background(), QueryOptions{Parallelism: par})
		if err != nil {
			return nil, err
		}
		defer res.Close()
		var buf bytes.Buffer
		_, err = res.WriteXML(&buf)
		return buf.Bytes(), err
	}
	want, err := run(1)
	if err != nil || len(want) == 0 {
		t.Fatalf("serial: %q, %v", want, err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				par := 1 + (g+i)%4
				if got, err := run(par); err != nil || !bytes.Equal(got, want) {
					errc <- fmt.Errorf("par=%d: %v, output differs from serial: %v", par, err, !bytes.Equal(got, want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
