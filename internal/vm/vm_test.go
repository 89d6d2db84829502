package vm

import (
	"context"
	"strings"
	"testing"

	"xquec/internal/engine"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
	"xquec/internal/xquery"
)

// evalVM compiles and runs the program.
func evalVM(t testing.TB, s *storage.Store, q string) (string, error) {
	t.Helper()
	expr, err := xquery.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	prog, err := engine.Compile(expr, s, q)
	if err != nil {
		t.Fatalf("compile %q: %v", q, err)
	}
	res, err := prog.Run(context.Background())
	if err != nil {
		return "", err
	}
	defer res.Close()
	return serialize(res)
}

// serialize renders the remaining items of res as XML/text, one item
// per line.
func serialize(res *engine.Result) (string, error) {
	var sb strings.Builder
	if _, err := res.WriteXML(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// queryBattery is the unit-level differential corpus: XMark plus
// targeted shapes for each compiled construct (restrict reordering,
// deferred slots, invariant domains, LET propagation, residual WHERE,
// fallback blocks, text tails, sequences of blocks), the nested LET
// shapes the compiler lowers to loops, the nested FLWORs it compiles to
// sub-programs and the string-function restricts.
func queryBattery() []xmarkq.Query {
	qs := append([]xmarkq.Query{}, xmarkq.Queries()...)
	qs = append(qs, xmarkq.ExtendedQueries()...)
	qs = append(qs, xmarkq.Shapes()...)
	qs = append(qs, xmarkq.StringRestricts()...)
	return append(qs, xmarkq.NestedFLWORs()...)
}

// TestDifferentialBattery: VM output must be byte-identical to the DOM
// reference for every battery query, and fail where the reference fails
// (the two word their errors differently).
func TestDifferentialBattery(t *testing.T) {
	s := Store(t)
	for _, q := range queryBattery() {
		want, wErr := EvalRef(t, q.Text)
		got, vErr := evalVM(t, s, q.Text)
		if err := Differ(want, wErr, got, vErr); err != "" {
			t.Fatalf("%s: %s", q.ID, err)
		}
	}
}
