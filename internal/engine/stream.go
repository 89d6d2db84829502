package engine

import (
	"errors"
	"iter"

	"xquec/internal/algebra"
	"xquec/internal/xquery"
)

// errStopStream aborts the push-side evaluation when the pull side
// stops consuming (Result.Close, or an abandoned WriteXML). It never
// escapes the package: the generator swallows it on unwind.
var errStopStream = errors.New("engine: result stream stopped")

// EvalStream evaluates a parsed query as a pull-based cursor: no
// result items exist before the first Next, and — for the streamable
// top-level shapes (FLWORs, paths, sequences) — binding evaluation,
// predicate work and value decompression for item k+1 happen only after
// item k has been pulled. A FLWOR with ORDER BY collects and sorts its
// tuples on the first pull, then evaluates one RETURN per tuple pulled.
// Aggregates evaluate on the first pull and then drain incrementally,
// which still bounds serialization memory to one item.
//
// The returned Result must be fully consumed or Closed; both release
// the evaluation coroutine and pooled buffers.
func (e *Engine) EvalStream(expr xquery.Expr) (*Result, error) {
	e.resetRun()
	if e.ctx != nil {
		// Fail an already-expired deadline deterministically, before any
		// evaluation work (same contract as Eval).
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
	}
	next, stop := iter.Pull2(func(yield func(Item, error) bool) {
		err := e.streamTop(expr, newScope(), func(it Item) bool {
			return yield(it, nil)
		})
		if err != nil && err != errStopStream {
			yield(nil, err)
		}
	})
	return &Result{store: e.store, ctx: e.ctx, pull: next, stop: stop}, nil
}

// QueryStream parses src and evaluates it via EvalStream.
func (e *Engine) QueryStream(src string) (*Result, error) {
	expr, err := xquery.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.EvalStream(expr)
}

// streamTop pushes the items of a top-level expression into emit,
// item by item. emit returning false stops the evaluation (reported
// as errStopStream so callers can unwind without treating it as a
// failure).
func (e *Engine) streamTop(expr xquery.Expr, env *scope, emit func(Item) bool) error {
	if err := e.checkCancel(); err != nil {
		return err
	}
	switch x := expr.(type) {
	case *xquery.FLWOR:
		// flworEach hands over each RETURN chunk as soon as its tuple's
		// bindings and predicates are settled — with an ORDER BY, as soon
		// as its tuple comes up in sorted order.
		return e.flworEach(x, env, func(v Seq) error {
			for _, it := range v {
				if !emit(it) {
					return errStopStream
				}
			}
			return nil
		}, e.bindHook)
	case *xquery.Sequence:
		for _, sub := range x.Items {
			if err := e.streamTop(sub, env, emit); err != nil {
				return err
			}
		}
		return nil
	case *xquery.PathExpr:
		return e.streamPath(x, env, emit)
	}
	// Fallback: atoms, aggregates, constructors — evaluate eagerly and
	// drain. These are single-item (or tiny) results in practice.
	v, err := e.eval(expr, env)
	if err != nil {
		return err
	}
	for _, it := range v {
		if !emit(it) {
			return errStopStream
		}
	}
	return nil
}

// streamPath yields a top-level path's items one at a time. The
// structural part runs set-at-a-time in the compressed domain (IDs
// only, nothing is decompressed); a trailing text() step then decodes
// per pulled item via TextContentEach instead of decoding the whole
// container extent up front.
func (e *Engine) streamPath(p *xquery.PathExpr, env *scope, emit func(Item) bool) error {
	st, textTail, err := e.evalPathNodes(p, env)
	if err != nil {
		return err
	}
	if textTail {
		stopped := false
		i := 0
		if err := algebra.TextContentEach(e.store, st.nodes, func(text string) bool {
			// Texts map 1:1 to st.nodes in order; the owner element is
			// the item's origin for the bind hook.
			if e.bindHook != nil {
				e.bindHook(st.nodes[i])
			}
			i++
			stopped = !emit(text)
			return !stopped
		}); err != nil {
			return err
		}
		if stopped {
			return errStopStream
		}
		return nil
	}
	for _, id := range st.nodes {
		if e.bindHook != nil {
			e.bindHook(id)
		}
		if !emit(id) {
			return errStopStream
		}
	}
	return nil
}
