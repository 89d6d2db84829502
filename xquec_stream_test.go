package xquec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/storage"
)

// streamDB builds a repository whose canonical streaming query
// (`FOR $i IN /d/i RETURN $i/v/text()`) yields n items, each requiring
// exactly one value decompression.
func streamDB(t testing.TB, n int) *Database {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<d>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<i><v>val%04d</v></i>", i)
	}
	sb.WriteString("</d>")
	db, err := Compress([]byte(sb.String()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

const streamQuery = `FOR $i IN /d/i RETURN $i/v/text()`

func TestResultsNextIteration(t *testing.T) {
	db := streamDB(t, 5)
	res, err := db.Execute(context.Background(), streamQuery, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	var got []string
	for {
		item, ok, err := res.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		xml, err := item.XML()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, xml)
	}
	if len(got) != 5 || got[0] != "val0000" || got[4] != "val0004" {
		t.Fatalf("items = %q", got)
	}
	// Exhausted cursor: more Nexts are a clean no-op, Len is the total.
	if _, ok, err := res.Next(); ok || err != nil {
		t.Fatalf("Next after exhaustion = %v, %v", ok, err)
	}
	if res.Len() != 5 {
		t.Fatalf("Len = %d", res.Len())
	}
}

// TestLenKeepsItemsBeforeAnError: Len buffers the items evaluated
// before a mid-stream error, and Next hands them out before the error.
func TestLenKeepsItemsBeforeAnError(t *testing.T) {
	doc := `<site><people><person><name>Alice</name></person><person><name>Bob</name></person></people></site>`
	db, err := Compress([]byte(doc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := `for $p in /site/people/person return if ($p/name = "Bob") then 1 mod 0 else 1`
	res, err := db.Execute(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if n := res.Len(); n != 1 {
		t.Fatalf("Len = %d, want the 1 item before the error", n)
	}
	item, ok, err := res.Next()
	if err != nil || !ok {
		t.Fatalf("first Next after Len = %v, %v; want the buffered item", ok, err)
	}
	if xml, err := item.XML(); err != nil || xml != "1" {
		t.Fatalf("first item = %q, %v", xml, err)
	}
	for i := 0; i < 2; i++ {
		if _, ok, err := res.Next(); ok || !errors.Is(err, ErrEval) {
			t.Fatalf("Next after the buffered item = %v, %v; want the sticky ErrEval", ok, err)
		}
	}
}

// TestWriteXMLMatchesItems checks the streamed rendering against the
// item-at-a-time one: the same items, newline-separated.
func TestWriteXMLMatchesItems(t *testing.T) {
	db := streamDB(t, 7)
	items := db.MustQuery(streamQuery)
	var parts []string
	for {
		it, ok, err := items.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		x, err := it.XML()
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, x)
	}
	want := strings.Join(parts, "\n")
	res, err := db.Execute(context.Background(), streamQuery, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	var sb strings.Builder
	n, err := res.WriteXML(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Fatalf("WriteXML = %q, want %q", sb.String(), want)
	}
	if n != len(want) {
		t.Fatalf("n = %d, want %d", n, len(want))
	}
	// WriteXML drained the cursor; Len still reports the full total.
	if res.Len() != 7 {
		t.Fatalf("Len after drain = %d", res.Len())
	}
}

// TestStreamCancellationMidIteration cancels the context between two
// Next calls: the next call must return ctx.Err(), and the error must
// be sticky across further calls. Close stays clean afterwards.
func TestStreamCancellationMidIteration(t *testing.T) {
	db := streamDB(t, 50)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := db.Execute(ctx, streamQuery, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	for i := 0; i < 3; i++ {
		if _, ok, err := res.Next(); !ok || err != nil {
			t.Fatalf("item %d: ok=%v err=%v", i, ok, err)
		}
	}
	cancel()
	if _, ok, err := res.Next(); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = ok=%v err=%v, want Canceled", ok, err)
	}
	// Sticky: the same error again, and WriteXML reports it too.
	if _, _, err := res.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("second Next after cancel: %v", err)
	}
	if _, err := res.WriteXML(io.Discard); !errors.Is(err, context.Canceled) {
		t.Fatalf("WriteXML after cancel: %v", err)
	}
	if err := res.Close(); err != nil {
		t.Fatalf("Close after cancel: %v", err)
	}
	if err := res.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestEarlyStopSkipsDecoding is the observable half of the pull-based
// contract: consuming k of n result items must decompress ~k values,
// not all n. The process-wide decode counter provides the observation.
func TestEarlyStopSkipsDecoding(t *testing.T) {
	const n = 400
	db := streamDB(t, n)

	base := storage.DecodeOps()
	res, err := db.Execute(context.Background(), streamQuery, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok, err := res.Next(); !ok || err != nil {
			t.Fatalf("item %d: ok=%v err=%v", i, ok, err)
		}
	}
	afterThree := storage.DecodeOps() - base
	// 3 consumed items -> 3 value decodes (plus a little slack for the
	// primed first item); decisively below the full extent.
	if afterThree > 8 {
		t.Fatalf("consuming 3 items cost %d decodes; early stop is not skipping work", afterThree)
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	afterClose := storage.DecodeOps() - base
	if afterClose >= n {
		t.Fatalf("Close still decoded the full extent (%d decodes)", afterClose)
	}

	// Control: a full drain does pay for every item.
	base = storage.DecodeOps()
	res2, err := db.Execute(context.Background(), streamQuery, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res2.WriteXML(io.Discard); err != nil {
		t.Fatal(err)
	}
	if drained := storage.DecodeOps() - base; drained < n {
		t.Fatalf("full drain decoded only %d of %d values", drained, n)
	}
	res2.Close()
}

// TestStreamedSubtreesAllocatePerItemNotPerNode: streaming whole
// subtrees through Next + AppendXML into one buffer costs what the
// engine pays to hand out an item (boxing the binding: two allocations)
// and nothing per node or value serialized — a person of XMark is some
// forty nodes.
func TestStreamedSubtreesAllocatePerItemNotPerNode(t *testing.T) {
	db, err := Compress(datagen.XMark(datagen.XMarkConfig{Scale: 0.5, Seed: 1}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(`FOR $p IN /site/people/person RETURN $p`)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	items := 0
	drain := func() {
		res, err := prep.Execute(context.Background(), QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		for items = 0; ; items++ {
			it, ok, err := res.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return
			}
			if buf, err = it.AppendXML(buf[:0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs := testing.AllocsPerRun(3, drain)
	if items < 300 {
		t.Fatalf("%d persons", items)
	}
	// 64: what a run costs before its first item.
	if limit := float64(2*items + 64); allocs > limit {
		t.Fatalf("%d persons streamed in %.0f allocations, limit %.0f", items, allocs, limit)
	}
}

// TestConcurrentStreamIterators runs many independent cursors over one
// Database at once (meaningful under -race): per-query state must be
// fully private to each cursor.
func TestConcurrentStreamIterators(t *testing.T) {
	db := streamDB(t, 40)
	want, err := ResultXML(db.MustQuery(streamQuery))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				res, err := db.Execute(context.Background(), streamQuery, QueryOptions{})
				if err != nil {
					errs <- err
					return
				}
				var sb strings.Builder
				for {
					item, ok, err := res.Next()
					if err != nil {
						errs <- err
						return
					}
					if !ok {
						break
					}
					if sb.Len() > 0 {
						sb.WriteByte('\n')
					}
					xml, err := item.XML()
					if err != nil {
						errs <- err
						return
					}
					sb.WriteString(xml)
				}
				res.Close()
				if sb.String() != want {
					errs <- fmt.Errorf("worker %d: output diverged", w)
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

func TestErrorSentinels(t *testing.T) {
	db := streamDB(t, 3)

	t.Run("parse", func(t *testing.T) {
		if _, err := db.Execute(context.Background(), `FOR $x IN`, QueryOptions{}); !errors.Is(err, ErrParse) {
			t.Fatalf("Query parse err = %v", err)
		}
		if _, err := db.Prepare(`((`); !errors.Is(err, ErrParse) {
			t.Fatalf("Prepare parse err = %v", err)
		}
		if err := ParseQuery(`FOR`); !errors.Is(err, ErrParse) {
			t.Fatalf("ParseQuery err = %v", err)
		}
		if err := ParseQuery(streamQuery); err != nil {
			t.Fatalf("valid query rejected: %v", err)
		}
	})

	t.Run("eval", func(t *testing.T) {
		for _, q := range []string{`$undefined`, `unknownfn(1)`} {
			_, err := db.Execute(context.Background(), q, QueryOptions{})
			if !errors.Is(err, ErrEval) {
				t.Fatalf("Query(%s) err = %v, want ErrEval", q, err)
			}
			if errors.Is(err, ErrParse) {
				t.Fatalf("Query(%s) tagged as parse error", q)
			}
		}
	})

	t.Run("corrupt repository", func(t *testing.T) {
		data := db.Bytes()
		bad := append([]byte("NOTAREPO"), data[8:]...)
		_, err := OpenBytes(bad)
		if !errors.Is(err, ErrCorruptRepository) {
			t.Fatalf("OpenBytes err = %v, want ErrCorruptRepository", err)
		}
		// The underlying message survives the tag.
		if !strings.Contains(err.Error(), "bad magic") {
			t.Fatalf("cause lost: %v", err)
		}
		if _, err := OpenBytes(data[:len(data)-50]); !errors.Is(err, ErrCorruptRepository) {
			t.Fatalf("truncated err = %v", err)
		}
	})

	t.Run("missing file is not corrupt", func(t *testing.T) {
		_, err := Open("/nonexistent/path/repo.xqc")
		if err == nil {
			t.Fatal("missing file opened")
		}
		if errors.Is(err, ErrCorruptRepository) {
			t.Fatalf("filesystem error tagged as corruption: %v", err)
		}
		if !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("os.ErrNotExist lost: %v", err)
		}
	})

	t.Run("cancellation is untagged", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := db.Execute(ctx, streamQuery, QueryOptions{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
		if errors.Is(err, ErrEval) {
			t.Fatalf("cancellation tagged ErrEval: %v", err)
		}
	})
}

// TestItemAppendXML exercises the allocation-free per-item form.
func TestItemAppendXML(t *testing.T) {
	db := streamDB(t, 3)
	res, err := db.Execute(context.Background(), streamQuery, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	buf := make([]byte, 0, 64)
	var got []string
	for {
		item, ok, err := res.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		buf, err = item.AppendXML(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(buf))
	}
	if len(got) != 3 || got[2] != "val0002" {
		t.Fatalf("items = %q", got)
	}
}
