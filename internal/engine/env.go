package engine

import (
	"fmt"

	"xquec/internal/algebra"
	"xquec/internal/storage"
)

// scope is a run's evaluation environment: the bindings of the query's
// variables, one per binder slot (xquery.Clause.Binder), and the context
// node (0 when there is none) with — for the compressed-domain fast
// paths — the summary nodes it is an instance of. A clause writes its own
// slot; a reference reads the slot the parser resolved it to, the
// innermost clause of its name. The query has no functions, so no FLWOR
// runs inside itself: while a reference can read a slot, only its own
// clause writes it, and nothing is put back when a clause, a loop or a
// sub-program ends. Slot 0 is never bound: it is every name nothing binds.
type scope struct {
	vars    []binding
	ctx     [1]storage.NodeID
	ctxSums []*storage.SummaryNode
}

// newScope returns the environment of one run of a query whose largest
// binder slot is binders.
func newScope(binders int) *scope {
	return &scope{vars: make([]binding, binders+1)}
}

// of returns the binding of the clause whose slot is binder, nil for
// slot 0: a reference to a name nothing binds.
func (v *scope) of(binder int) *binding {
	if binder == 0 {
		return nil
	}
	return &v.vars[binder]
}

// bound is of, failing where nothing is bound: name is the variable's.
func (v *scope) bound(binder int, name string) (*binding, error) {
	if b := v.of(binder); b != nil {
		return b, nil
	}
	return nil, fmt.Errorf("engine: unbound variable $%s", name)
}

// binding is one variable's slot in a scope. A FOR clause rewrites it per
// tuple, so binding a tuple allocates nothing: node values stay unboxed
// (ids, backed by one for a single FOR item), and a value is boxed into a
// seq only where an expression asks for it.
type binding struct {
	seq  seq             // generic value (LET over atoms or fragments)
	ids  algebra.NodeSet // document-ordered node value; non-nil replaces seq
	item Item            // single non-node FOR item; non-nil replaces seq
	one  [1]storage.NodeID
	sums []*storage.SummaryNode
	// at is the place of a one-node value among the extents of sums, once
	// placed: the FOR cursor's, or found on first use (place), galloping
	// from where the clause's previous binding was found (hints).
	at     place
	placed bool
	hints  []int
}

// setNode binds one node, an instance of sums. at is its place among
// their extents when the caller knows it; place finds it otherwise.
func (b *binding) setNode(id storage.NodeID, sums []*storage.SummaryNode, at place) {
	b.one[0] = id
	b.ids, b.item, b.sums, b.at, b.placed = b.one[:], nil, sums, at, at.ok
}

// set binds a value: a node set when ids is non-nil, else seq or item.
func (b *binding) set(seq seq, ids algebra.NodeSet, item Item, sums []*storage.SummaryNode) {
	b.seq, b.ids, b.item, b.sums, b.at, b.placed = seq, ids, item, sums, place{}, false
}

// place returns the place of the binding's one node among the extents of
// its sums, finding it once per binding: every relative path from a
// binding its cursor did not place shares the one search.
func (b *binding) place() place {
	if !b.placed {
		if cap(b.hints) < len(b.sums) {
			b.hints = make([]int, len(b.sums))
		}
		b.at, b.placed = placeOf(b.sums, b.hints[:len(b.sums)], b.ids[0]), true
	}
	return b.at
}

// value boxes the binding. The result is a fresh sequence unless the
// binding holds an immutable LET value, so callers may keep it across
// tuples.
func (b *binding) value() seq {
	switch {
	case b.ids != nil:
		out := make(seq, len(b.ids))
		for i, id := range b.ids {
			out[i] = id
		}
		return out
	case b.item != nil:
		return seq{b.item}
	}
	return b.seq
}

// len is the length of the binding's value, without boxing it.
func (b *binding) len() int {
	switch {
	case b.ids != nil:
		return len(b.ids)
	case b.item != nil:
		return 1
	}
	return len(b.seq)
}
