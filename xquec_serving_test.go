package xquec

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xquec/internal/datagen"
	"xquec/internal/xquery"
)

// slowDoc and slowQuery build an evaluation long enough that the
// cancellation tests can interrupt it mid-stream: a residual
// (non-pushdownable) cross product over 1200 elements.
func slowDB(t testing.TB) *Database {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<d>")
	for i := 0; i < 1200; i++ {
		fmt.Fprintf(&sb, "<i><v>%d</v></i>", i)
	}
	sb.WriteString("</d>")
	db, err := Compress([]byte(sb.String()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

const slowQuery = `count(FOR $a IN /d/i, $b IN /d/i WHERE number($a/v) + number($b/v) < 0 RETURN 1)`

func TestQueryContextTimeout(t *testing.T) {
	db := slowDB(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	started := time.Now()
	_, err := db.Execute(ctx, slowQuery, QueryOptions{})
	elapsed := time.Since(started)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; evaluation was not interrupted", elapsed)
	}
}

func TestQueryContextCancel(t *testing.T) {
	db := slowDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := db.Execute(ctx, slowQuery, QueryOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

func TestQueryContextExpiredBeforeStart(t *testing.T) {
	db, err := Compress([]byte(apiDoc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := db.Execute(ctx, `count(/site//person)`, QueryOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// A background context behaves exactly like plain Query.
	res, err := db.Execute(context.Background(), `count(/site//person)`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out, _ := ResultXML(res); out != "2" {
		t.Fatalf("result = %q", out)
	}
}

func TestPreparedMatchesQuery(t *testing.T) {
	db, err := Compress([]byte(apiDoc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := `FOR $p IN /site/people/person WHERE $p/age >= 28 RETURN $p/name/text()`
	prep, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if prep.Text() != q {
		t.Fatalf("Text = %q", prep.Text())
	}
	want, _ := ResultXML(db.MustQuery(q))
	for i := 0; i < 3; i++ {
		res, err := prep.Execute(context.Background(), QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := ResultXML(res); got != want {
			t.Fatalf("run %d: %q != %q", i, got, want)
		}
	}
	if _, err := db.Prepare(`FOR $x IN`); err == nil {
		t.Fatal("bad query prepared")
	}
}

// TestPreparedConcurrentRuns is the shared-plan half of the
// goroutine-safety audit: one parsed query, many engines, run under
// -race. The engine keeps all mutable evaluation state (join-index
// caches, scopes) per call, so a cached plan must be shareable.
func TestPreparedConcurrentRuns(t *testing.T) {
	db, err := Compress([]byte(apiDoc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`FOR $p IN /site/people/person WHERE $p/age >= 28 RETURN $p/name/text()`,
		`count(/site/closed_auctions/closed_auction[price >= 20])`,
		`FOR $p IN /site/people/person
		 LET $a := FOR $t IN /site/closed_auctions/closed_auction
		           WHERE $t/buyer/@person = $p/@id RETURN $t
		 RETURN count($a)`,
	}
	preps := make([]*Prepared, len(queries))
	want := make([]string, len(queries))
	for i, q := range queries {
		p, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		preps[i] = p
		res, err := p.Execute(context.Background(), QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i], _ = ResultXML(res)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				k := (w + i) % len(preps)
				res, err := preps[k].Execute(context.Background(), QueryOptions{})
				if err != nil {
					errs <- err
					return
				}
				if got, _ := ResultXML(res); got != want[k] {
					errs <- fmt.Errorf("query %d: %q != %q", k, got, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestOpenFailurePaths(t *testing.T) {
	db, err := Compress([]byte(apiDoc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.xqc")
	if err := db.SaveFile(good); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte("NOTAREPO"), data[8:]...)
		_, err := OpenBytes(bad)
		if err == nil {
			t.Fatal("bad magic accepted")
		}
		if !strings.Contains(err.Error(), "bad magic") {
			t.Fatalf("unhelpful error: %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		_, err := OpenBytes(data[:len(data)-100])
		if err == nil {
			t.Fatal("truncated repository accepted")
		}
		if !strings.Contains(err.Error(), "corrupt") && !strings.Contains(err.Error(), "bad magic") {
			t.Fatalf("unhelpful error: %v", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := OpenBytes(nil); err == nil {
			t.Fatal("empty bytes accepted")
		}
	})
	t.Run("file error includes path", func(t *testing.T) {
		trunc := filepath.Join(dir, "trunc.xqc")
		if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(trunc)
		if err == nil {
			t.Fatal("truncated file opened")
		}
		if !strings.Contains(err.Error(), "trunc.xqc") {
			t.Fatalf("error does not name the file: %v", err)
		}
	})
}

// TestPreparedOwnsPartPrograms pins where a partitioned database keeps
// per-query state: in the Prepared, nowhere else. Literal-varying
// traffic against a sharded database must leave nothing behind once the
// statements are dropped (the shard workers used to cache one plan per
// distinct query text forever), and a statement's CostBytes must cover
// every part's program, since evicting it frees them all.
func TestPreparedOwnsPartPrograms(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.02, Seed: 71})
	single, err := Compress(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	text := func(i int) string {
		return fmt.Sprintf(`FOR $p IN /site/people/person WHERE $p/@id != "nobody%d" RETURN $p/name/text()`, i)
	}

	sharded, err := Compress(doc, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	var freed atomic.Int32
	for i := 0; i < n; i++ {
		prep, err := sharded.Prepare(text(i))
		if err != nil {
			t.Fatal(err)
		}
		res, err := prep.Execute(context.Background(), QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ResultXML(res); err != nil {
			t.Fatal(err)
		}
		// The parsed query travels with every per-shard request; anything
		// that remembered the request would keep it alive.
		runtime.SetFinalizer(prep.expr.(*xquery.FLWOR), func(*xquery.FLWOR) { freed.Add(1) })
	}
	for i := 0; i < 50 && freed.Load() < n; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := freed.Load(); got != n {
		t.Fatalf("%d of %d dropped statements are still reachable from the database", n-got, n)
	}
	runtime.KeepAlive(sharded)

	four, err := Compress(doc, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	one, err := single.Prepare(text(0))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := four.Prepare(text(0))
	if err != nil {
		t.Fatal(err)
	}
	if parts.CostBytes() <= one.CostBytes() {
		t.Fatalf("CostBytes on 4 parts = %d, single store = %d: the per-part programs are unaccounted",
			parts.CostBytes(), one.CostBytes())
	}
	if len(parts.progs) != 4 {
		t.Fatalf("Prepare compiled %d programs for 4 parts", len(parts.progs))
	}
	res, err := parts.Execute(context.Background(), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	if len(parts.progs) != 4 {
		t.Fatalf("executing compiled again: %d programs for 4 parts", len(parts.progs))
	}
}
