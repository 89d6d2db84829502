package engine_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/engine"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
	"xquec/internal/xquery"
)

// TestStaticJoinIndexBuiltOnce: Q8's join has static sides, so compiling
// it builds the join index — once — and no execution builds another.
func TestStaticJoinIndexBuiltOnce(t *testing.T) {
	s, err := storage.Load(datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 3}), storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	expr, err := xquery.Parse(xmarkq.Q8)
	if err != nil {
		t.Fatal(err)
	}
	before := engine.JoinIndexBuilds()
	prog, err := engine.Compile(expr, s, xmarkq.Q8)
	if err != nil {
		t.Fatal(err)
	}
	if n := engine.JoinIndexBuilds() - before; n != 1 {
		t.Fatalf("compile built %d join indexes, want 1", n)
	}
	var first string
	for i := 0; i < 4; i++ {
		res, err := prog.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out, err := res.SerializeXML()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = out
		} else if out != first {
			t.Fatalf("run %d differs from run 0", i)
		}
	}
	if n := engine.JoinIndexBuilds() - before; n != 1 {
		t.Fatalf("compile and 4 runs built %d join indexes, want 1", n)
	}
}

// TestProgramOffsetsBuiltOnce: the extent offsets of Q3's bidder runs and
// Q17's are built by the compiler — one array per pair of summary nodes,
// however many paths read it — and no run builds another: eight
// goroutines running one program at once return the first run's output
// byte for byte (run under -race by make check). A Program
// is what xquec.Prepared holds and the plan cache shares. A point
// lookup's predicate step is entered exact and builds none.
func TestProgramOffsetsBuiltOnce(t *testing.T) {
	s, err := storage.Load(datagen.XMark(datagen.XMarkConfig{Scale: 0.25, Seed: 5}), storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		id, text string
		arrays   int64
	}{{"q3", xmarkq.Q3, 1}, {"q17", xmarkq.Q17, 0}, {"lookup", `/site/people/person[@id = "person3"]/name/text()`, 0}} {
		expr, err := xquery.Parse(q.text)
		if err != nil {
			t.Fatal(err)
		}
		before := engine.OffsetBuilds()
		prog, err := engine.Compile(expr, s, q.text)
		if err != nil {
			t.Fatal(err)
		}
		if n := engine.OffsetBuilds() - before; n != q.arrays {
			t.Fatalf("%s: compile built %d offset arrays, want %d:\n%s", q.id, n, q.arrays, prog.Disassemble())
		}
		run := func() (string, error) {
			res, err := prog.Run(context.Background())
			if err != nil {
				return "", err
			}
			return res.SerializeXML()
		}
		want, err := run()
		if err != nil || want == "" {
			t.Fatalf("%s first run: %q, %v", q.id, want, err)
		}
		const goroutines = 8
		var wg sync.WaitGroup
		errc := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					if got, err := run(); err != nil || got != want {
						errc <- fmt.Errorf("%s: %v, output differs from the first run: %v", q.id, err, got != want)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Error(err)
		}
		if n := engine.OffsetBuilds() - before; n != q.arrays {
			t.Fatalf("%s: compile and 33 runs built %d offset arrays, want %d", q.id, n, q.arrays)
		}
	}
}
