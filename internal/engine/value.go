// Package engine implements the XQueC query processor (Fig. 1, module
// 3): it evaluates parsed XQuery expressions over the compressed
// repository, keeping values compressed for as long as possible —
// predicates run in the compressed domain when the container's codec
// allows, equality joins run as compressed merge joins when the join
// sides share a source model, and decompression happens only in final
// result construction (§4).
package engine

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"xquec/internal/algebra"
	"xquec/internal/storage"
	"xquec/internal/xmlparser"
)

// Item is one item of an XQuery sequence: a stored node (storage.NodeID),
// an atomic value (string, float64, bool), or a constructed element
// (*Fragment).
type Item interface{}

// Fragment is an element built by a constructor; its content may mix
// atoms, stored nodes (copied at serialization time) and nested
// fragments.
type Fragment struct {
	Name    string
	Attrs   []FragAttr
	Content []Item
}

// FragAttr is a constructed attribute.
type FragAttr struct {
	Name  string
	Value string
}

// Seq is an XQuery sequence.
type Seq []Item

// Result is the outcome of a query: a pull-based cursor over the
// result sequence. Results built by Eval arrive fully materialized;
// results built by EvalStream compute items on demand, so a consumer
// that serializes one item at a time holds O(1 item) of decompressed
// data, and one that stops after N items (or cancels its context)
// stops evaluation-side decoding too.
type Result struct {
	store *storage.Store
	ctx   context.Context // non-nil when the evaluation is cancellable

	// queue holds materialized items not yet handed out; qpos is its
	// read cursor. Eager results start with queue fully populated.
	queue Seq
	qpos  int
	// pull/stop drive the lazy source (iter.Pull2 over the push
	// evaluator); nil for eager results and after exhaustion.
	pull func() (Item, error, bool)
	stop func()

	served int   // items already handed out
	err    error // sticky: first evaluation or cancellation error
}

// newEagerResult wraps an already-evaluated sequence.
func newEagerResult(items Seq, store *storage.Store) *Result {
	return &Result{store: store, queue: items}
}

// Next returns the next result item. ok is false when the sequence is
// exhausted (or the cursor closed); a non-nil error is sticky and is
// returned again by every later call. Item serialization — and with it
// value decompression — is the caller's move (AppendItemXML), so
// pulling an item is cheap until its value bytes are actually needed.
func (r *Result) Next() (Item, bool, error) {
	if r.err != nil {
		return nil, false, r.err
	}
	if r.qpos < len(r.queue) {
		it := r.queue[r.qpos]
		r.qpos++
		r.served++
		return it, true, nil
	}
	if r.pull == nil {
		return nil, false, nil
	}
	if r.ctx != nil {
		if err := r.ctx.Err(); err != nil {
			r.fail(err)
			return nil, false, err
		}
	}
	it, err, ok := r.pull()
	if !ok {
		r.release()
		return nil, false, nil
	}
	if err != nil {
		r.fail(err)
		return nil, false, err
	}
	r.served++
	return it, true, nil
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
	if r.stop != nil {
		r.stop()
		r.stop = nil
		r.pull = nil
	}
}

// Prime materializes the first remaining item (if any) without
// consuming it, surfacing errors that occur before any output — an
// expired deadline, an unbound variable, a full aggregate evaluation —
// at call time rather than on the first Next.
func (r *Result) Prime() error {
	if r.err != nil {
		return r.err
	}
	if r.qpos < len(r.queue) || r.pull == nil {
		return nil
	}
	if r.ctx != nil {
		if err := r.ctx.Err(); err != nil {
			r.fail(err)
			return err
		}
	}
	it, err, ok := r.pull()
	if !ok {
		r.release()
		return nil
	}
	if err != nil {
		r.fail(err)
		return err
	}
	r.queue = append(r.queue, it)
	return nil
}

// materialize drains the lazy source into the queue without consuming
// it, so Len can report a total while Next/WriteXML still see every
// item.
func (r *Result) materialize() {
	for r.err == nil && r.pull != nil {
		if r.ctx != nil {
			if err := r.ctx.Err(); err != nil {
				r.fail(err)
				return
			}
		}
		it, err, ok := r.pull()
		if !ok {
			r.release()
			return
		}
		if err != nil {
			r.fail(err)
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

// SerializeXML renders the remaining items as XML/text, one item per
// line — the only point where values are decompressed.
//
// Deprecated-by-doc: it materializes the whole rendering in memory;
// prefer WriteXML (or Next + AppendItemXML) for large results.
func (r *Result) SerializeXML() (string, error) {
	var sb strings.Builder
	if _, err := r.WriteXML(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// AppendItemXML appends the XML/text rendering of one item (as handed
// out by Next) to dst. Values are decoded straight into dst, so a
// consumer reusing one buffer serializes without allocating.
func (r *Result) AppendItemXML(dst []byte, it Item) ([]byte, error) {
	return serializeItem(dst, r.store, it)
}

func serializeItem(dst []byte, s *storage.Store, it Item) ([]byte, error) {
	switch v := it.(type) {
	case storage.NodeID:
		return s.Serialize(dst, v)
	case string:
		return append(dst, v...), nil
	case float64:
		return append(dst, formatNum(v)...), nil
	case bool:
		return strconv.AppendBool(dst, v), nil
	case *Fragment:
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
		for _, c := range v.Content {
			if str, ok := c.(string); ok {
				dst = xmlparser.EscapeText(dst, str)
				continue
			}
			dst, err = serializeItem(dst, s, c)
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

// appendNodeValue appends a stored node's decompressed value to dst: its
// immediate text (an attribute's value, or what a text() step selects),
// else the string value of the element.
func (e *Engine) appendNodeValue(dst []byte, id storage.NodeID, immediate bool) ([]byte, error) {
	if immediate || e.store.IsAttr(id) {
		return e.store.Text(dst, id)
	}
	return e.store.DeepText(dst, id)
}

// appendTexts appends the immediate text of each owner to dst, decoded
// through sbuf: the item string is the only copy made.
func (e *Engine) appendTexts(dst Seq, owners algebra.NodeSet) (Seq, error) {
	if dst == nil {
		dst = make(Seq, 0, len(owners))
	}
	for _, id := range owners {
		var err error
		if e.sbuf, err = e.store.Text(e.sbuf[:0], id); err != nil {
			return nil, err
		}
		dst = append(dst, string(e.sbuf))
	}
	return dst, nil
}

// stringValue atomizes one item to its string value, decompressing
// stored node content as needed.
func (e *Engine) stringValue(it Item) (string, error) {
	switch v := it.(type) {
	case storage.NodeID:
		var err error
		e.sbuf, err = e.appendNodeValue(e.sbuf[:0], v, false)
		return string(e.sbuf), err
	case string:
		return v, nil
	case float64:
		return formatNum(v), nil
	case bool:
		return strconv.FormatBool(v), nil
	case *Fragment:
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
func (e *Engine) atomize(s Seq) ([]string, error) {
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
func (e *Engine) effectiveBool(s Seq) (bool, error) {
	if len(s) == 0 {
		return false, nil
	}
	if len(s) == 1 {
		switch v := s[0].(type) {
		case bool:
			return v, nil
		case string:
			return v != "", nil
		case float64:
			return v != 0, nil
		}
	}
	// node (or longer) sequences are true by existence
	return true, nil
}

// compareAtoms applies a general-comparison operator to two atoms:
// numerically when both parse as numbers, as strings otherwise.
func compareAtoms(op, a, b string) bool {
	fa, ea := strconv.ParseFloat(strings.TrimSpace(a), 64)
	fb, eb := strconv.ParseFloat(strings.TrimSpace(b), 64)
	var cmp int
	if ea == nil && eb == nil {
		switch {
		case fa < fb:
			cmp = -1
		case fa > fb:
			cmp = 1
		}
	} else {
		cmp = strings.Compare(a, b)
	}
	switch op {
	case "=":
		return cmp == 0
	case "!=":
		return cmp != 0
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	}
	return false
}

// nodeSeq extracts the NodeIDs of a sequence in document order; ok is
// false if the sequence holds non-node items.
func nodeSeq(s Seq) ([]storage.NodeID, bool) {
	out := make([]storage.NodeID, 0, len(s))
	for _, it := range s {
		id, isNode := it.(storage.NodeID)
		if !isNode {
			return nil, false
		}
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, true
}
