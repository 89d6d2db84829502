package engine_test

import (
	"context"
	"io"
	"strings"
	"testing"

	"xquec/internal/baselines/galaxlike"
	"xquec/internal/engine"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// streamQueries covers every top-level shape a compiled program streams:
// paths (with and without a text() tail), FLWOR (plain, nested, WHERE,
// ORDER BY), sequences, and the expressions evaluated whole (aggregates,
// constructors).
var streamQueries = []string{
	`document("d")/site/people/person/name/text()`,
	`/site/people/person/@id`,
	`/site//person/city/text()`,
	`FOR $p IN /site/people/person WHERE $p/age >= 28 RETURN $p/name/text()`,
	`FOR $p IN /site/people/person ORDER BY $p/age DESCENDING RETURN $p/name/text()`,
	`FOR $a IN /site/auctions/auction
	 LET $b := $a/buyer/@person
	 RETURN <sale who="x">{$a/price/text()}</sale>`,
	`(1, 2, /site/people/person/name/text(), "tail")`,
	`count(/site//person)`,
	`sum(/site/auctions/auction/price)`,
	`<wrap>{/site/people/person/name}</wrap>`,
}

func peopleStore(t *testing.T) *storage.Store {
	t.Helper()
	s, err := storage.Load([]byte(engine.PeopleDoc), storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// stream compiles q against s and starts one run of it under ctx.
func stream(t *testing.T, ctx context.Context, s *storage.Store, q string) *engine.Result {
	t.Helper()
	expr, err := xquery.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := engine.Compile(expr, s, q)
	if err != nil {
		t.Fatalf("Compile(%s): %v", q, err)
	}
	res, err := prog.Run(engine.RunOptions{Ctx: ctx, Parallelism: 1})
	if err != nil {
		t.Fatalf("Run(%s): %v", q, err)
	}
	return res
}

// eager evaluates q with the DOM reference evaluator over the document.
func eager(t *testing.T, q string) string {
	t.Helper()
	res, err := galaxlike.New([]byte(engine.PeopleDoc)).Query(q)
	if err != nil {
		t.Fatalf("reference: %s: %v", q, err)
	}
	out, err := res.SerializeXML()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStreamMatchesEager is the equivalence anchor: draining the
// program's streaming cursor must be byte-identical to the reference's
// whole result for every shape.
func TestStreamMatchesEager(t *testing.T) {
	s := peopleStore(t)
	for _, q := range streamQueries {
		want := eager(t, q)
		got, err := stream(t, context.Background(), s, q).SerializeXML()
		if err != nil {
			t.Fatalf("SerializeXML(%s): %v", q, err)
		}
		if got != want {
			t.Fatalf("stream(%s) = %q, reference = %q", q, got, want)
		}
	}
}

func TestStreamNextAndLen(t *testing.T) {
	res := stream(t, context.Background(), peopleStore(t), `/site/people/person/name/text()`)
	// Len before any Next materializes without losing items.
	if res.Len() != 3 {
		t.Fatalf("Len = %d", res.Len())
	}
	var names []string
	for {
		it, ok, err := res.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		names = append(names, it.(string))
	}
	if strings.Join(names, ",") != "Alice,Bob,Carol" {
		t.Fatalf("names = %v", names)
	}
	if res.Len() != 3 {
		t.Fatalf("Len after drain = %d", res.Len())
	}
}

// TestStreamEarlyClose stops consuming after one item; the run must stop
// cleanly (no error, its scratch released) and the cursor must stay
// closed.
func TestStreamEarlyClose(t *testing.T) {
	res := stream(t, context.Background(), peopleStore(t), `FOR $p IN /site/people/person RETURN $p/name/text()`)
	if _, ok, err := res.Next(); !ok || err != nil {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := res.Next(); ok || err != nil {
		t.Fatalf("Next after Close: ok=%v err=%v", ok, err)
	}
}

func TestStreamEvalError(t *testing.T) {
	// Starting the run succeeds; the error surfaces on pull.
	res := stream(t, context.Background(), peopleStore(t), `$undefined`)
	if _, ok, err := res.Next(); ok || err == nil {
		t.Fatalf("Next = ok=%v err=%v, want error", ok, err)
	}
	// Sticky on repeat.
	if _, _, err := res.Next(); err == nil {
		t.Fatal("error not sticky")
	}
}

func TestStreamContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	res := stream(t, ctx, peopleStore(t), `/site/people/person/name/text()`)
	if _, ok, err := res.Next(); !ok || err != nil {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	cancel()
	if _, ok, err := res.Next(); ok || err != context.Canceled {
		t.Fatalf("Next after cancel: ok=%v err=%v", ok, err)
	}
}

func TestStreamWriteXML(t *testing.T) {
	s := peopleStore(t)
	const q = `/site/people/person/name/text()`
	want := eager(t, q)
	res := stream(t, context.Background(), s, q)
	var sb strings.Builder
	n, err := res.WriteXML(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != want || n != len(want) {
		t.Fatalf("WriteXML = %q (%d bytes), want %q", sb.String(), n, len(want))
	}
	// Drained: another WriteXML writes nothing.
	if n, err := res.WriteXML(io.Discard); n != 0 || err != nil {
		t.Fatalf("second WriteXML = %d, %v", n, err)
	}
}
