// Package engine implements the XQueC query processor (Fig. 1, module
// 3): it evaluates parsed XQuery expressions over the compressed
// repository, keeping values compressed for as long as possible —
// predicates run in the compressed domain when the container's codec
// allows, equality joins run as compressed merge joins when the join
// sides share a source model, and decompression happens only in final
// result construction (§4).
//
// A query runs as its compiled program, on a register-light stack VM.
// The compiler (compile.go) lowers the AST into a flat []instr program:
// container and summary-node operands are resolved against the
// repository's structure summary at compile time, every FLWOR's clauses
// become cursor loops — a nested FLWOR's, unless a LET is bound to it, in
// a sub-program the engine calls where it stands — and the §4 predicate
// fast paths (compressed-domain container matches, join indexes built at
// compile time, summary-pruned steps) are dedicated opcodes. An ORDER BY
// collects its tuples, sorts them — on container ranks when it can — and
// evaluates one RETURN per replayed tuple. A RETURN that is an element
// constructor is an emission template: its item is written straight into
// the run's output buffer, no fragment built. The run loop (vm.go) IS the
// streaming cursor: Result.Next executes instructions until one emits an
// item, then suspends at the program counter — no per-item goroutine or
// coroutine handoff.
//
// Every other expression a run evaluates — a residual WHERE, a RETURN
// body, a template piece, a function argument, a step predicate — is
// lowered at compile into a node (expr.go) that holds the compiler's
// choices for it: a path's plan and cursor slot, a comparison's kind, a
// call's built-in and cardinality rule. Everything set-at-a-time — path
// navigation, container scans, join indexes, template emission — is the
// run's engine's, which runs each FLWOR a node reaches through the run's
// dispatch loop. The DOM evaluator of internal/baselines/galaxlike, which shares
// no code with this package, is the oracle of its tests and of the
// end-to-end ones.
package engine

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"xquec/internal/algebra"
	"xquec/internal/storage"
	"xquec/internal/xmlparser"
)

// Item is one item of an XQuery sequence: a stored node (storage.NodeID),
// an atomic value (string, float64, bool), or a constructed element —
// a *fragment, or the *xml an emission template wrote.
type Item interface{}

// fragment is an element built by a constructor; its content may mix
// atoms, stored nodes (copied at serialization time) and nested
// fragments.
type fragment struct {
	Name    string
	Attrs   []fragAttr
	Content []Item
}

// fragAttr is a constructed attribute.
type fragAttr struct {
	Name  string
	Value string
}

// seq is an XQuery sequence.
type seq []Item

// Result is the outcome of a query: a pull-based cursor over the
// result sequence. A compiled program's run drives it, computing items
// on demand, so a consumer that serializes one item at a time holds
// O(1 item) of decompressed data, and one that stops after N items (or
// cancels its context) stops evaluation-side decoding too.
type Result struct {
	store *storage.Store

	// queue holds materialized items (Prime, Len) not yet handed out;
	// qpos is its read cursor.
	queue seq
	qpos  int
	// run is the lazy source, the program's run loop; nil after
	// exhaustion.
	run *run

	served int   // items already handed out
	err    error // sticky: first evaluation or cancellation error

	// cur is the text cursor stored subtrees are swept through
	// (AppendItemXML): nil until the first one, cursorBusy while a call
	// holds it.
	cur atomic.Pointer[storage.TextCursor]
}

// cursorBusy marks a Result's cursor as held by an AppendItemXML call.
var cursorBusy = new(storage.TextCursor)

// Next returns the next result item. ok is false when the sequence is
// exhausted (or the cursor closed); a non-nil error is sticky and is
// returned again by every later call, once the items evaluated before
// it (Prime, Len) are handed out. Item serialization — and with it
// value decompression — is the caller's move (AppendItemXML), so
// pulling an item is cheap until its value bytes are actually needed.
func (r *Result) Next() (Item, bool, error) {
	if r.qpos < len(r.queue) {
		it := r.queue[r.qpos]
		r.qpos++
		r.served++
		return it, true, nil
	}
	it, ok := r.pull()
	if !ok {
		return nil, false, r.err
	}
	r.served++
	return it, true, nil
}

// pull runs the program to its next item. ok is false when there is
// none: the run is over, or it failed, and then r.err says why.
func (r *Result) pull() (Item, bool) {
	if r.err != nil || r.run == nil {
		return nil, false
	}
	if ctx := r.run.eng.ctx; ctx != nil {
		if err := ctx.Err(); err != nil {
			r.fail(err)
			return nil, false
		}
	}
	it, ok, err := r.run.next()
	if err != nil {
		r.fail(err)
		return nil, false
	}
	if !ok {
		r.release()
	}
	return it, ok
}

// Close stops the evaluation and releases pooled buffers. It is
// idempotent and safe after exhaustion; items not yet consumed are
// dropped.
func (r *Result) Close() error {
	r.qpos = len(r.queue)
	r.release()
	return nil
}

func (r *Result) fail(err error) {
	r.err = err
	r.release()
}

// release stops the lazy source.
func (r *Result) release() {
	if r.run != nil {
		r.run.stop()
		r.run = nil
	}
}

// Prime materializes the first remaining item (if any) without
// consuming it, surfacing errors that occur before any output — an
// expired deadline, an unbound variable, a full aggregate evaluation —
// at call time rather than on the first Next.
func (r *Result) Prime() error {
	if r.qpos == len(r.queue) {
		if it, ok := r.pull(); ok {
			r.queue = append(r.queue, it)
		}
	}
	return r.err
}

// materialize drains the lazy source into the queue without consuming
// it, so Len can report a total while Next/WriteXML still see every
// item.
func (r *Result) materialize() {
	for {
		it, ok := r.pull()
		if !ok {
			return
		}
		r.queue = append(r.queue, it)
	}
}

// Len returns the total number of result items. On a streaming result
// this forces the remaining evaluation (buffering the items for later
// consumption); prefer counting Next calls when streaming.
func (r *Result) Len() int {
	r.materialize()
	return r.served + len(r.queue) - r.qpos
}

// WriteXML streams the not-yet-consumed items to w as XML/text,
// newline-separated, decompressing values one item at a time: peak
// decompressed state is a single item regardless of result size. It
// returns the number of bytes written. The cursor is drained (and its
// buffers released) on return.
func (r *Result) WriteXML(w io.Writer) (int, error) {
	written := 0
	first := true
	var buf []byte
	for {
		it, ok, err := r.Next()
		if err != nil {
			return written, err
		}
		if !ok {
			return written, nil
		}
		if !first {
			n, err := io.WriteString(w, "\n")
			written += n
			if err != nil {
				r.fail(err)
				return written, err
			}
		}
		first = false
		buf, err = r.AppendItemXML(buf[:0], it)
		if err != nil {
			r.fail(err)
			return written, err
		}
		n, err := w.Write(buf)
		written += n
		if err != nil {
			r.fail(err)
			return written, err
		}
	}
}

// AppendItemXML appends the XML/text rendering of one item (as handed
// out by Next) to dst. Values are decoded straight into dst, so a
// consumer reusing one buffer serializes without allocating. Stored
// subtrees are swept through the Result's own text cursor, made for the
// first one: a FOR hands its subtrees out in document order, and each
// sweep walks forward from the last. Items of one Result may be
// serialized from several goroutines at once; a call that finds the
// cursor held by another sweeps without one.
func (r *Result) AppendItemXML(dst []byte, it Item) ([]byte, error) {
	switch it.(type) {
	case storage.NodeID, *fragment:
	default:
		return serializeItem(dst, r.store, nil, it)
	}
	c := r.cur.Swap(cursorBusy)
	switch c {
	case cursorBusy:
		return serializeItem(dst, r.store, nil, it)
	case nil:
		c = new(storage.TextCursor)
	}
	dst, err := serializeItem(dst, r.store, c, it)
	r.cur.Store(c)
	return dst, err
}

// serializeItem appends the rendering of it, sweeping stored subtrees
// through c (nil: cold).
func serializeItem(dst []byte, s *storage.Store, c *storage.TextCursor, it Item) ([]byte, error) {
	switch v := it.(type) {
	case storage.NodeID:
		return s.Serialize(c, dst, v)
	case string:
		return append(dst, v...), nil
	case float64:
		return append(dst, formatNum(v)...), nil
	case bool:
		return strconv.AppendBool(dst, v), nil
	case *xml:
		return append(dst, v.Data...), nil
	case *fragment:
		dst = append(dst, '<')
		dst = append(dst, v.Name...)
		for _, a := range v.Attrs {
			dst = append(dst, ' ')
			dst = append(dst, a.Name...)
			dst = append(dst, '=', '"')
			dst = xmlparser.EscapeAttr(dst, a.Value)
			dst = append(dst, '"')
		}
		if len(v.Content) == 0 {
			return append(dst, '/', '>'), nil
		}
		dst = append(dst, '>')
		var err error
		for _, ci := range v.Content {
			if str, ok := ci.(string); ok {
				dst = xmlparser.EscapeText(dst, str)
				continue
			}
			dst, err = serializeItem(dst, s, c, ci)
			if err != nil {
				return dst, err
			}
		}
		dst = append(dst, '<', '/')
		dst = append(dst, v.Name...)
		return append(dst, '>'), nil
	}
	return dst, fmt.Errorf("engine: cannot serialize %T", it)
}

// formatNum renders numbers the XPath way: integers without a decimal
// point.
func formatNum(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// valueRead is how a stored node's value is read: as the string value of
// its subtree, as its immediate text, or as the one text leaf of an
// instance of summary nodes whose Shape is Sole.
type valueRead uint8

const (
	deepValue valueRead = iota
	immediateValue
	soleValue
)

// nodeReads is how stored nodes are read for their values (read) and
// written as element content (content).
type nodeReads struct{ read, content valueRead }

// readOf returns how the nodes of a path, instances of sums, are read,
// from the value shapes of sums: as their one text leaf when that record
// is every instance's only child, else as their immediate text when they
// are the owners a text() step leaves (textTail) or their value record is
// their own text, else as their string value.
func readOf(sums []*storage.SummaryNode, textTail bool) valueRead {
	sole, immediate := len(sums) > 0, len(sums) > 0
	for _, sn := range sums {
		sh := sn.Shape()
		sole = sole && sh.Sole
		immediate = immediate && sh.Why == "" && ownText(sn, sh.Value)
	}
	switch {
	case sole:
		return soleValue
	case textTail || immediate:
		return immediateValue
	}
	return deepValue
}

// text appends the immediate text of id to dst through the run's cursor:
// with no walk over its children when how is soleValue.
func (e *engine) text(dst []byte, id storage.NodeID, how valueRead) ([]byte, error) {
	if how == soleValue {
		return e.store.SoleText(&e.cur, dst, id)
	}
	return e.store.Text(&e.cur, dst, id)
}

// appendNodeValue appends a stored node's decompressed value, read as how
// says, to dst; an attribute's is its immediate text whatever how says.
func (e *engine) appendNodeValue(dst []byte, id storage.NodeID, how valueRead) ([]byte, error) {
	if how != deepValue || e.store.IsAttr(id) {
		return e.text(dst, id, how)
	}
	return e.store.DeepText(&e.cur, dst, id)
}

// appendTexts appends the immediate text of each owner, a node the text()
// step of plan pl selects, to dst, decoded through sbuf: the item string
// is the only copy made.
func (e *engine) appendTexts(dst seq, owners algebra.NodeSet, pl *pathPlan) (seq, error) {
	if dst == nil {
		dst = make(seq, 0, len(owners))
	}
	for _, id := range owners {
		var err error
		if e.sbuf, err = e.text(e.sbuf[:0], id, pl.read); err != nil {
			return nil, err
		}
		dst = append(dst, string(e.sbuf))
	}
	return dst, nil
}

// stringValue atomizes one item to its string value, decompressing
// stored node content as needed.
func (e *engine) stringValue(it Item) (string, error) {
	switch v := it.(type) {
	case storage.NodeID:
		var err error
		e.sbuf, err = e.appendNodeValue(e.sbuf[:0], v, deepValue)
		return string(e.sbuf), err
	case string:
		return v, nil
	case float64:
		return formatNum(v), nil
	case bool:
		return strconv.FormatBool(v), nil
	case *fragment:
		var sb strings.Builder
		for _, c := range v.Content {
			s, err := e.stringValue(c)
			if err != nil {
				return "", err
			}
			sb.WriteString(s)
		}
		return sb.String(), nil
	}
	return "", fmt.Errorf("engine: cannot atomize %T", it)
}

// atomize flattens a sequence into string atoms.
func (e *engine) atomize(s seq) ([]string, error) {
	out := make([]string, 0, len(s))
	for _, it := range s {
		a, err := e.stringValue(it)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// effectiveBool implements the XPath effective boolean value.
func effectiveBool(s seq) bool {
	if len(s) == 1 {
		switch v := s[0].(type) {
		case bool:
			return v
		case string:
			return v != ""
		case float64:
			return v != 0
		}
	}
	// node (or longer) sequences are true by existence
	return len(s) > 0
}

// compareAtoms applies a general-comparison operator to two atoms:
// numerically when both parse as numbers, as strings otherwise.
func compareAtoms(op cmpOp, a, b string) bool {
	fa, ea := strconv.ParseFloat(strings.TrimSpace(a), 64)
	fb, eb := strconv.ParseFloat(strings.TrimSpace(b), 64)
	if ea == nil && eb == nil {
		return op.nums(fa, fb)
	}
	return op.strs(a, b)
}

// nodeSeq extracts the NodeIDs of a sequence in document order; ok is
// false if the sequence holds non-node items, and ordered says that they
// stood in document order, strictly ascending, already.
func nodeSeq(s seq) (ids []storage.NodeID, ok, ordered bool) {
	ids, ordered = make([]storage.NodeID, 0, len(s)), true
	for _, it := range s {
		id, isNode := it.(storage.NodeID)
		if !isNode {
			return nil, false, false
		}
		ordered = ordered && (len(ids) == 0 || ids[len(ids)-1] < id)
		ids = append(ids, id)
	}
	if !ordered {
		slices.Sort(ids)
	}
	return ids, true, ordered
}
