package engine

import (
	"xquec/internal/algebra"
	"xquec/internal/storage"
)

// clauseEnv is the evaluation environment (variable bindings plus their
// summary-node provenance) for the clauses of a compiled FLWOR. The
// clause bound k-th binds at depth k, and binding there first unbinds
// every deeper clause, restoring what each shadowed: a clause source
// evaluated after its enclosing FOR clause rebinds sees exactly the
// clauses before it in the current tuple — never its own or a later
// clause's binding from the previous tuple. A LET whose source the
// program runs as loops of its own reserves its depth (open) and its
// inner clauses bind deeper; binding the LET drops them. A sub-program
// binds through a clauseEnv of its own over the caller's scope, from
// depth 0, and what it shadowed is restored when it returns, so the
// caller's bindings survive every call.
type clauseEnv struct {
	s      *scope
	frames []frame // the clauses, by depth; a slot outlives its frame
}

// frame is one clause: its variable, the slot holding its value, and the
// binding the slot shadows. A frame is live while its variable is bound;
// an open (reserved) frame is not yet.
type frame struct {
	name        string
	b, shadowed *binding
	live        bool
}

// reset drops every binding (the VM emits a reset at each top-level
// block boundary so sibling blocks cannot see each other's variables).
func (v *clauseEnv) reset() {
	v.s = newScope()
	v.frames = v.frames[:0]
}

// truncate unbinds the clauses at depth n and deeper.
func (v *clauseEnv) truncate(n int) {
	for len(v.frames) > n {
		f := &v.frames[len(v.frames)-1]
		if f.live {
			v.s.unbind(f.name, f.shadowed)
			f.live = false
		}
		v.frames = v.frames[:len(v.frames)-1]
	}
}

// push adds an open frame at the next depth, reusing its slot.
func (v *clauseEnv) push() {
	if len(v.frames) < cap(v.frames) {
		v.frames = v.frames[:len(v.frames)+1]
	} else {
		v.frames = append(v.frames, frame{})
	}
	f := &v.frames[len(v.frames)-1]
	f.live = false
	if f.b == nil {
		f.b = &binding{}
	}
}

// open reserves depth for a LET whose value the clauses bound after it
// compute: the clauses at depth and deeper are unbound, and the LET's own
// variable stays unbound — its source must not see it — until bind.
func (v *clauseEnv) open(depth int) {
	v.truncate(depth)
	v.push()
}

// slot unbinds the clauses deeper than depth and returns the slot of the
// clause at depth, installing it under name when that clause is not
// bound yet — the clauses above it are. A FOR clause's next tuple
// rebinds the installed slot, allocating nothing.
func (v *clauseEnv) slot(depth int, name string, sums []*storage.SummaryNode) *binding {
	v.truncate(depth + 1)
	if len(v.frames) == depth {
		v.push()
	}
	f := &v.frames[depth]
	if !f.live {
		f.name, f.shadowed, f.live = name, v.s.lookup(name), true
		v.s.bind(name, f.b)
	}
	f.b.sums = sums
	return f.b
}

// bind binds the clause at depth to a value — a document-ordered node
// set when ids is non-nil, else a generic sequence the caller no longer
// writes to — and its summary provenance.
func (v *clauseEnv) bind(depth int, name string, seq seq, ids algebra.NodeSet, sums []*storage.SummaryNode) {
	b := v.slot(depth, name, sums)
	b.seq, b.ids, b.item = seq, ids, nil
}

// bindNode binds the FOR clause at depth to one node.
func (v *clauseEnv) bindNode(depth int, name string, id storage.NodeID, sums []*storage.SummaryNode) {
	v.slot(depth, name, sums).setNode(id)
}
