package server

import (
	"context"
	"strings"
	"testing"

	"xquec"
)

func testPrepared(t *testing.T, q string) *xquec.Prepared {
	t.Helper()
	db, err := xquec.Compress([]byte("<doc><a>1</a><a>2</a></doc>"), xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanCacheHitMissEvict(t *testing.T) {
	c := NewPlanCache(2)
	if c.Get("r", "t", "q1") != nil {
		t.Fatal("empty cache hit")
	}
	p1 := testPrepared(t, `count(/doc/a)`)
	c.Put("r", "t", "q1", p1)
	if got := c.Get("r", "t", "q1"); got != p1 {
		t.Fatal("missing after Put")
	}
	if c.Get("other", "t", "q1") != nil {
		t.Fatal("plans must be per-repo")
	}
	c.Put("r", "t", "q2", testPrepared(t, `count(/doc)`))
	c.Get("r", "t", "q1")                                   // touch q1: q2 becomes LRU
	c.Put("r", "t", "q3", testPrepared(t, `/doc/a/text()`)) // evicts q2
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if c.Get("r", "t", "q2") != nil {
		t.Fatal("q2 should be the evicted entry (q1 was more recently used)")
	}
	if c.Get("r", "t", "q1") == nil || c.Get("r", "t", "q3") == nil {
		t.Fatal("q1/q3 should survive")
	}
}

// TestPlanCacheByteAccounting: every resident entry is charged its
// CostBytes, and eviction and replacement release the charge.
func TestPlanCacheByteAccounting(t *testing.T) {
	c := NewPlanCache(2)
	p1 := testPrepared(t, `count(/doc/a)`)
	p2 := testPrepared(t, `count(/doc)`)
	p3 := testPrepared(t, `/doc/a/text()`)
	c.Put("r", "t", "q1", p1)
	if bytes := c.Stats().SizeBytes; bytes != int64(p1.CostBytes()) {
		t.Fatalf("bytes after first Put = %d, want %d", bytes, p1.CostBytes())
	}
	c.Put("r", "t", "q2", p2)
	c.Put("r", "t", "q3", p3) // evicts q1 (LRU)
	bytes := c.Stats().SizeBytes
	if c.Get("r", "t", "q1") != nil || c.Stats().Evictions != 1 {
		t.Fatalf("q1 not evicted: %+v", c.Stats())
	}
	if want := int64(p2.CostBytes() + p3.CostBytes()); bytes != want {
		t.Fatalf("bytes after eviction = %d, want %d", bytes, want)
	}
	// Replacing an entry swaps its charge rather than double-counting.
	c.Put("r", "t", "q3", p1)
	if bytes := c.Stats().SizeBytes; bytes != int64(p2.CostBytes()+p1.CostBytes()) {
		t.Fatalf("bytes after replace = %d", bytes)
	}
}

func TestPlanCacheExecutableEntries(t *testing.T) {
	c := NewPlanCache(4)
	p := testPrepared(t, `count(/doc/a)`)
	c.Put("r", "t", p.Text(), p)
	got := c.Get("r", "t", p.Text())
	res, err := got.Execute(context.Background(), xquec.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if _, err := res.WriteXML(&out); err != nil || out.String() != "2" {
		t.Fatalf("cached plan result = %q, %v", out.String(), err)
	}
}
