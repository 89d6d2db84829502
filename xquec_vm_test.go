package xquec_test

import (
	"context"
	"os"
	"testing"

	"xquec"
	"xquec/internal/datagen"
	"xquec/internal/xmarkq"
)

// evalWith runs one query at the given parallelism and returns the
// serialized result (engine selection follows XQUEC_EVAL, read at run
// time).
func evalWith(db *xquec.Database, query string, par int) (string, error) {
	res, err := db.Execute(context.Background(), query, xquec.QueryOptions{Parallelism: par})
	if err != nil {
		return "", err
	}
	defer res.Close()
	return xquec.ResultXML(res)
}

// TestVMDifferentialMatrix is the top-level correctness gate for the
// compiled-plan engine: every benchmark query, at every shard count in
// {1, 2, 4, 8} and intra-query parallelism in {1, 4}, must produce
// byte-identical output (and identical errors) on the stack VM and the
// tree-walking oracle. Sharded databases exercise the worker-side
// per-shard programs; the fused/scatter split is whatever the analyzer
// decides, identically for both engines.
func TestVMDifferentialMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is slow under -short")
	}
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.03, Seed: 91})
	queries := append(xmarkq.Queries(), xmarkq.ExtendedQueries()...)

	// Register env restoration, then toggle per-run: Enabled() reads
	// XQUEC_EVAL at evaluation time, so the same Database serves both
	// engines.
	t.Setenv("XQUEC_EVAL", "")

	for _, shards := range []int{1, 2, 4, 8} {
		db, err := xquec.Compress(doc, xquec.Options{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for _, par := range []int{1, 4} {
			for _, q := range queries {
				os.Setenv("XQUEC_EVAL", "")
				vmOut, vmErr := evalWith(db, q.Text, par)
				os.Setenv("XQUEC_EVAL", "tree")
				treeOut, treeErr := evalWith(db, q.Text, par)
				if (vmErr == nil) != (treeErr == nil) {
					t.Fatalf("shards=%d par=%d %s: vm err=%v, tree err=%v",
						shards, par, q.ID, vmErr, treeErr)
				}
				if vmErr != nil && vmErr.Error() != treeErr.Error() {
					t.Fatalf("shards=%d par=%d %s: vm err %q, tree err %q",
						shards, par, q.ID, vmErr, treeErr)
				}
				if vmOut != treeOut {
					t.Fatalf("shards=%d par=%d %s: output mismatch\n--- vm ---\n%.400s\n--- tree ---\n%.400s",
						shards, par, q.ID, vmOut, treeOut)
				}
			}
		}
	}
}

// TestEvalEngineSwitch pins the XQUEC_EVAL contract: default is the
// compiled VM, "tree" selects the oracle, and both answer queries.
func TestEvalEngineSwitch(t *testing.T) {
	t.Setenv("XQUEC_EVAL", "")
	if xquec.EvalEngine() != "vm" {
		t.Fatalf("default engine = %q", xquec.EvalEngine())
	}
	os.Setenv("XQUEC_EVAL", "tree")
	if xquec.EvalEngine() != "tree" {
		t.Fatalf("XQUEC_EVAL=tree engine = %q", xquec.EvalEngine())
	}
	os.Setenv("XQUEC_EVAL", "")

	db, err := xquec.Compress([]byte(`<doc><a>1</a><a>2</a></doc>`), xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(`count(/doc/a)`)
	if err != nil {
		t.Fatal(err)
	}
	if prep.EngineLabel() != "vm" || prep.ProgramLen() == 0 {
		t.Fatalf("prepared: engine=%q len=%d", prep.EngineLabel(), prep.ProgramLen())
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
		t.Fatalf("vm result = %q, %v", out, err)
	}
}
