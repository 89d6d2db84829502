package xquec_test

import (
	"context"
	"testing"

	"xquec"
	"xquec/internal/baselines/galaxlike"
	"xquec/internal/datagen"
	"xquec/internal/xmarkq"
)

// evalWith runs one query at the given parallelism and returns the
// serialized result.
func evalWith(db *xquec.Database, query string, par int) (string, error) {
	res, err := db.Execute(context.Background(), query, xquec.QueryOptions{Parallelism: par})
	if err != nil {
		return "", err
	}
	defer res.Close()
	return xquec.ResultXML(res)
}

// domXML evaluates a query over the uncompressed document with the DOM
// reference evaluator, which shares no code with the compressed engine.
func domXML(t *testing.T, doc []byte, q string) string {
	t.Helper()
	res, err := galaxlike.New(doc).Query(q)
	if err != nil {
		t.Fatalf("reference: %s: %v", q, err)
	}
	out, err := res.SerializeXML()
	if err != nil {
		t.Fatalf("reference: %s: %v", q, err)
	}
	return out
}

// TestVMDifferentialMatrix is the top-level correctness gate for the
// compiled-plan engine: every benchmark query, at every shard count in
// {1, 2, 4, 8} and intra-query parallelism in {1, 4}, must produce
// output byte-identical to the DOM reference over the uncompressed
// document. Sharded databases exercise the worker-side per-shard
// programs and the fused fallback, whichever the analyzer picks.
func TestVMDifferentialMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is slow under -short")
	}
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.03, Seed: 91})
	queries := append(xmarkq.Queries(), xmarkq.ExtendedQueries()...)
	want := map[string]string{}
	for _, q := range queries {
		want[q.ID] = domXML(t, doc, q.Text)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		db, err := xquec.Compress(doc, xquec.Options{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for _, par := range []int{1, 4} {
			for _, q := range queries {
				got, err := evalWith(db, q.Text, par)
				if err != nil {
					t.Fatalf("shards=%d par=%d %s: %v", shards, par, q.ID, err)
				}
				if got != want[q.ID] {
					t.Fatalf("shards=%d par=%d %s: output differs from the reference\n--- vm ---\n%.400s\n--- reference ---\n%.400s",
						shards, par, q.ID, got, want[q.ID])
				}
			}
		}
	}
}

// TestEvalEngineSwitch pins what replaced the evaluator switch: a
// prepared statement is its compiled program — instructions, a listing
// and a resident size for the plan cache — and runs as nothing else.
func TestEvalEngineSwitch(t *testing.T) {
	db, err := xquec.Compress([]byte(`<doc><a>1</a><a>2</a></doc>`), xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(`count(/doc/a)`)
	if err != nil {
		t.Fatal(err)
	}
	if prep.ProgramLen() == 0 {
		t.Fatal("prepared statement has no program")
	}
	if prep.CostBytes() <= 0 {
		t.Fatalf("CostBytes = %d", prep.CostBytes())
	}
	if dis := prep.Disassemble(); dis == "" {
		t.Fatal("empty disassembly for a compiled plan")
	}
	res, err := prep.Execute(context.Background(), xquec.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := xquec.ResultXML(res)
	res.Close()
	if err != nil || out != "2" {
		t.Fatalf("result = %q, %v", out, err)
	}
}
