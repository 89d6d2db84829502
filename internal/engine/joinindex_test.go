package engine_test

import (
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
		res, err := prog.Run(engine.RunOptions{Parallelism: 1})
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
