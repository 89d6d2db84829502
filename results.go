package xquec

import (
	"io"

	"xquec/internal/engine"
)

// Results is a query result sequence, consumed as a pull-based cursor:
//
//	res, err := db.Execute(ctx, q, xquec.QueryOptions{})
//	defer res.Close()
//	for {
//		item, ok, err := res.Next()
//		if err != nil { ... }
//		if !ok { break }
//		xml, err := item.XML()
//		...
//	}
//
// Values stay compressed until an item is serialized (Item.XML /
// WriteXML), and for streamable queries the evaluation itself advances
// one item per Next — stopping early (or cancelling the context passed
// to Execute) stops evaluation-side decompression too.
// A Results must be fully consumed or Closed to release its pooled
// buffers; Close is idempotent and always safe to defer.
//
// A Results is a single-consumer cursor. The Database it came from may
// serve any number of concurrent queries, each with its own Results.
type Results struct {
	res *engine.Result
}

// Item is one result item. It is a lightweight handle — a stored node
// reference, atom, or constructed fragment — whose value bytes are
// decompressed only when XML/AppendXML is called. The items of one
// Results may be serialized from several goroutines at once.
type Item struct {
	res *engine.Result
	it  engine.Item
}

// XML renders the item as XML/text.
func (it Item) XML() (string, error) {
	b, err := it.res.AppendItemXML(nil, it.it)
	if err != nil {
		return "", tagErr(ErrEval, err)
	}
	return string(b), nil
}

// AppendXML appends the item's XML/text rendering to dst and returns
// the extended slice — the allocation-free form of XML for consumers
// reusing one buffer across items.
func (it Item) AppendXML(dst []byte) ([]byte, error) {
	b, err := it.res.AppendItemXML(dst, it.it)
	return b, tagErr(ErrEval, err)
}

// Next returns the next result item. ok is false once the sequence is
// exhausted or the cursor closed. Errors (evaluation failures, or the
// context's error after cancellation) are sticky: every later call
// returns the same error.
func (r *Results) Next() (Item, bool, error) {
	it, ok, err := r.res.Next()
	if err != nil {
		return Item{}, false, tagErr(ErrEval, err)
	}
	return Item{res: r.res, it: it}, ok, nil
}

// WriteXML streams the not-yet-consumed items to w as XML/text, one
// item per line, decompressing one item at a time: peak decompressed
// state is a single item regardless of result cardinality. It returns
// the number of bytes written and drains the cursor.
func (r *Results) WriteXML(w io.Writer) (int, error) {
	n, err := r.res.WriteXML(w)
	return n, tagErr(ErrEval, err)
}

// Close stops the evaluation and releases pooled buffers. Items not
// yet consumed are discarded. Close is idempotent.
func (r *Results) Close() error {
	return r.res.Close()
}

// Len returns the total number of result items. On a not-yet-consumed
// streaming result this forces the remaining evaluation (items are
// buffered, not lost); when streaming large results, prefer counting
// Next calls instead. If the evaluation fails, Len counts the items
// before the failure, and Next returns the error after handing them out.
func (r *Results) Len() int {
	return r.res.Len()
}
