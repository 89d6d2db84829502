// Package vm compiles parsed XQuery plans to bytecode and evaluates
// them on a register-light stack VM.
//
// The compiler (compile.go) lowers the AST into a flat []Instr program:
// container and summary-node operands are resolved against the
// repository's structure summary at compile time, FLWOR clauses become
// cursor loops, and the §4 predicate fast paths (compressed-domain
// container matches, summary-pruned steps) are dedicated opcodes. The
// VM's run loop IS the streaming cursor: Run.Next executes instructions
// until one emits an item, then suspends at the program counter — no
// per-item goroutine or coroutine handoff (the iter.Pull2 hop of the
// tree walker's EvalStream).
//
// Everything set-at-a-time — path navigation, container scans, join
// indexes, per-tuple fallback evaluation — delegates to the same
// internal/engine code the tree walker runs, which is what makes the
// two evaluators byte-identical by construction. The tree walker stays
// available as an oracle behind XQUEC_EVAL=tree.
package vm

import (
	"context"
	"fmt"
	"os"

	"xquec/internal/algebra"
	"xquec/internal/engine"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// Enabled reports whether compiled-plan evaluation is selected (the
// default). Setting XQUEC_EVAL=tree switches every evaluation back to
// the tree-walking oracle; any other value keeps the VM.
func Enabled() bool { return os.Getenv("XQUEC_EVAL") != "tree" }

// Op is a VM opcode.
type Op uint8

const (
	// OpHalt ends the program.
	OpHalt Op = iota
	// OpReset installs a fresh variable environment (emitted at each
	// top-level block boundary so sibling blocks cannot observe each
	// other's bindings, matching tree-walker scoping).
	OpReset
	// OpScan A=cursor B=domain: evaluate a FOR domain (or top-level
	// path) into cursor A. Invariant domains are computed once per run.
	OpScan
	// OpLitRestrict A=cursor B=pred: compressed-domain semijoin of a
	// literal WHERE pushdown against cursor A's node set; predicates the
	// containers cannot answer fall into the cursor's deferred slots.
	OpLitRestrict
	// OpJoinRestrict A=cursor B=pred: equality-join pushdown restrict
	// via the engine's per-comparison join index, else deferred.
	OpJoinRestrict
	// OpIter A=cursor B=var C=jump: advance cursor A and bind its
	// current item to var; jump to C when exhausted (the enclosing
	// clause's OpIter, or the block end for clause 0).
	OpIter
	// OpDeferred A=cursor C=jump: evaluate the cursor's deferred
	// conjuncts (original plan order) against the fresh binding; jump
	// back to C (the cursor's OpIter) when one fails.
	OpDeferred
	// OpHook A=cursor: fire the engine bind hook with the cursor's
	// current node (clause-0 bindings only; no-op when unarmed).
	OpHook
	// OpLet A=var B=domain: evaluate a LET source and bind it.
	OpLet
	// OpWhere A=expr C=jump: residual WHERE conjunct; jump back to C
	// (the innermost OpIter) when false.
	OpWhere
	// OpEvalPush A=expr: evaluate an expression through the tree
	// evaluator and push the sequence onto the emit stack (RETURN
	// bodies the compiler does not specialize, eager fallback blocks).
	OpEvalPush
	// OpEmitSeq C=jump: emit the top-of-stack sequence one item per
	// Next; pop and jump to C when drained.
	OpEmitSeq
	// OpIterEmit A=cursor C=jump: top-level path streaming — advance
	// cursor A and emit its node (or its decoded text for text() tails)
	// directly; jump to C when exhausted.
	OpIterEmit
)

var opNames = [...]string{
	OpHalt: "HALT", OpReset: "RESET", OpScan: "SCAN",
	OpLitRestrict: "LITREST", OpJoinRestrict: "JOINREST",
	OpIter: "ITER", OpDeferred: "DEFERRED", OpHook: "HOOK",
	OpLet: "LET", OpWhere: "WHERE", OpEvalPush: "EVAL",
	OpEmitSeq: "EMITSEQ", OpIterEmit: "ITEREMIT",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// Instr is one instruction: an opcode and up to three operands, whose
// meaning depends on the opcode (cursor/pool indexes and jump targets).
type Instr struct {
	Op      Op
	A, B, C int32
}

// domainSpec is one FOR/LET source (or top-level path), with whatever
// the compiler could resolve statically against the structure summary.
type domainSpec struct {
	expr xquery.Expr
	path *xquery.PathExpr // non-nil when the source is a path
	// sums is the statically resolved result summary set; valid only
	// when static is true.
	sums   []*storage.SummaryNode
	static bool
	// topPath marks a top-level streaming path (structural nodes kept
	// as a cursor; text() tails decode per emitted item).
	topPath  bool
	textTail bool // static: the path ends in text()
	// invariant: the source has no free variables, so its scan result
	// is computed once per run and reused across outer tuples.
	invariant bool
	// preds are the clause's pushdown predicate indexes in original
	// plan order — the cursor's deferred slot layout.
	preds []int32
	desc  string // disassembly annotation
}

// predSpec is one WHERE pushdown assigned to a clause.
type predSpec struct {
	pd   engine.Pushdown
	slot int32 // original position among the clause's pushdowns
	// Literal pushdowns with a statically known clause summary resolve
	// their containers at compile time, for the cost that orders the
	// restricts, the disassembly, and to defer at once what has no fast
	// path; a run matches them through the engine, once (ApplyLitPushdown).
	conts    []*storage.Container
	complete bool
	fastOK   bool // relValueTarget ok (false: always deferred)
	resolved bool // conts/complete/fastOK are valid
	cost     float64
	desc     string
}

// Program is a compiled query plan: a flat instruction slice plus the
// operand pools its instructions index into. Programs are immutable
// after Compile and safe for any number of concurrent Runs — the plan
// cache shares one Program across requests.
type Program struct {
	src    string
	instrs []Instr
	doms   []domainSpec
	preds  []predSpec
	exprs  []xquery.Expr
	// plans is the pool of resolved paths and planned FLWORs: every
	// expression a run hands to the engine finds its plan here.
	plans   *engine.Plans
	vars    []string
	ncur    int
	store   *storage.Store
	sizeEst int
}

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.instrs) }

// SizeBytes estimates the program's resident size — instructions plus
// operand pools — for byte-based plan-cache accounting.
func (p *Program) SizeBytes() int { return p.sizeEst }

// Store returns the repository the program was compiled against.
// Programs resolve container and summary operands at compile time, so
// they are only valid on this store.
func (p *Program) Store() *storage.Store { return p.store }

// RunOptions configures one execution of a Program.
type RunOptions struct {
	// Ctx, when non-nil, is polled during evaluation (engine.WithContext
	// semantics: context.Background disables polling).
	Ctx context.Context
	// Parallelism is the intra-query worker budget (0 = GOMAXPROCS).
	Parallelism int
	// BindHook observes clause-0 binding nodes before their derived
	// items emit (engine.WithBindHook contract; the shard workers' rank
	// stamping plugs in here).
	BindHook func(storage.NodeID)
}

// emitFrame is one sequence being drained by OpEmitSeq.
type emitFrame struct {
	seq engine.Seq
	pos int
}

// cursor is one FOR clause's (or top-level path's) iteration state.
type cursor struct {
	ids     algebra.NodeSet
	seq     engine.Seq
	seqMode bool
	sums    []*storage.SummaryNode
	// deferred holds per-tuple conjuncts in original plan order (slot
	// layout from domainSpec.preds); nil slots passed.
	deferred []xquery.Expr
	pos      int
	textTail bool
	// current binding (for OpDeferred jumps and OpHook)
	curNode   storage.NodeID
	curIsNode bool
}

// domResult is a cached invariant-domain scan.
type domResult struct {
	seq      engine.Seq
	ids      algebra.NodeSet
	sums     []*storage.SummaryNode
	textTail bool
}

// Run is one execution of a Program: the program counter, cursors,
// emit stack and variable environment. A Run is single-goroutine, like
// the engine it drives.
type Run struct {
	prog *Program
	eng  *engine.Engine
	env  *engine.Env

	pc      int32
	cursors []cursor
	stack   []emitFrame
	doms    map[int32]*domResult

	sc   *storage.Scratch
	err  error
	done bool
}

// Run starts one execution and returns it wrapped as a streaming
// engine.Result: the VM loop is the cursor behind Result.Next. The
// up-front deadline check matches EvalStream's contract.
func (p *Program) Run(opts RunOptions) (*engine.Result, error) {
	r, err := p.NewRun(opts)
	if err != nil {
		return nil, err
	}
	return r.eng.NewPullResult(r.pull, r.stop), nil
}

// pull adapts next to the Result pull contract (item, err, ok: errors
// arrive with ok=true).
func (r *Run) pull() (engine.Item, error, bool) {
	it, ok, err := r.next()
	if err != nil {
		return nil, err, true
	}
	return it, nil, ok
}

// NewRun builds the execution state without wrapping it in a Result
// (tests drive Next directly).
func (p *Program) NewRun(opts RunOptions) (*Run, error) {
	eng := engine.New(p.store).WithPlans(p.plans)
	if opts.Ctx != nil {
		eng.WithContext(opts.Ctx)
	}
	eng.WithParallelism(opts.Parallelism)
	if opts.BindHook != nil {
		eng.WithBindHook(opts.BindHook)
	}
	if err := eng.ContextErr(); err != nil {
		return nil, err
	}
	return &Run{
		prog:    p,
		eng:     eng,
		env:     eng.NewEnv(),
		cursors: make([]cursor, p.ncur),
	}, nil
}

// Next yields the next result item. ok=false ends the stream; a
// non-nil error is sticky.
func (r *Run) Next() (engine.Item, bool, error) { return r.next() }

func (r *Run) fail(err error) (engine.Item, bool, error) {
	r.err = err
	r.releaseScratch()
	return nil, false, err
}

func (r *Run) releaseScratch() {
	if r.sc != nil {
		r.sc.Release()
		r.sc = nil
	}
}

func (r *Run) stop() {
	r.done = true
	r.releaseScratch()
}

// next is the dispatch loop: execute instructions until one emits an
// item (returning with the program counter parked so the next call
// resumes), the program halts, or evaluation fails.
func (r *Run) next() (engine.Item, bool, error) {
	if r.err != nil {
		return nil, false, r.err
	}
	if r.done {
		return nil, false, nil
	}
	p := r.prog
	eng := r.eng
	for {
		in := p.instrs[r.pc]
		switch in.Op {
		case OpHalt:
			r.stop()
			return nil, false, nil

		case OpReset:
			r.env.Reset()
			r.pc++

		case OpScan:
			spec := &p.doms[in.B]
			c := &r.cursors[in.A]
			c.pos = 0
			if spec.topPath {
				nodes, sums, textTail, err := eng.PathNodes(spec.path, r.env)
				if err != nil {
					return r.fail(err)
				}
				c.ids, c.sums, c.textTail, c.seqMode = nodes, sums, textTail, false
				r.pc++
				continue
			}
			var res *domResult
			if spec.invariant {
				if cached, ok := r.doms[in.B]; ok {
					res = cached
				}
			}
			if res == nil {
				seq, ids, sums, err := eng.BindingSeq(spec.expr, r.env)
				if err != nil {
					return r.fail(err)
				}
				res = &domResult{seq: seq, ids: ids, sums: sums}
				if spec.invariant {
					if r.doms == nil {
						r.doms = map[int32]*domResult{}
					}
					r.doms[in.B] = res
				}
			}
			c.ids, c.seq, c.sums = res.ids, res.seq, res.sums
			c.seqMode = res.ids == nil
			// Reset the deferred slots. In sequence mode (the domain is
			// not a node set) every pushdown becomes a per-tuple filter,
			// exactly like the tree walker's fallbackFilters.
			if n := len(spec.preds); n > 0 {
				if cap(c.deferred) < n {
					c.deferred = make([]xquery.Expr, n)
				}
				c.deferred = c.deferred[:n]
				for i := range c.deferred {
					c.deferred[i] = nil
				}
				if c.seqMode {
					for i, pi := range spec.preds {
						c.deferred[i] = p.preds[pi].pd.Conj
					}
				}
			} else {
				c.deferred = c.deferred[:0]
			}
			r.pc++

		case OpLitRestrict:
			c := &r.cursors[in.A]
			if c.seqMode {
				r.pc++
				continue
			}
			ps := &p.preds[in.B]
			if ps.resolved && !ps.fastOK {
				c.deferred[ps.slot] = ps.pd.Conj
				r.pc++
				continue
			}
			restricted, handled, err := eng.ApplyLitPushdown(ps.pd, c.ids, c.sums)
			if err != nil {
				return r.fail(err)
			}
			if handled {
				c.ids = restricted
			} else {
				c.deferred[ps.slot] = ps.pd.Conj
			}
			r.pc++

		case OpJoinRestrict:
			c := &r.cursors[in.A]
			if c.seqMode {
				r.pc++
				continue
			}
			ps := &p.preds[in.B]
			restricted, handled, err := eng.ApplyJoinPushdown(ps.pd, c.ids, c.sums, r.env)
			if err != nil {
				return r.fail(err)
			}
			if handled {
				c.ids = restricted
			} else {
				c.deferred[ps.slot] = ps.pd.Conj
			}
			r.pc++

		case OpIter:
			if err := eng.CheckCancel(); err != nil {
				return r.fail(err)
			}
			c := &r.cursors[in.A]
			n := len(c.ids)
			if c.seqMode {
				n = len(c.seq)
			}
			if c.pos >= n {
				r.pc = in.C
				continue
			}
			if c.seqMode {
				c.curNode, c.curIsNode = c.seq[c.pos].(storage.NodeID)
				r.env.Bind(p.vars[in.B], c.seq[c.pos:c.pos+1], nil, c.sums)
			} else {
				c.curNode, c.curIsNode = c.ids[c.pos], true
				r.env.BindNode(p.vars[in.B], c.curNode, c.sums)
			}
			c.pos++
			r.pc++

		case OpDeferred:
			c := &r.cursors[in.A]
			pass := true
			for _, conj := range c.deferred {
				if conj == nil {
					continue
				}
				ok, err := eng.EvalBoolExpr(conj, r.env)
				if err != nil {
					return r.fail(err)
				}
				if !ok {
					pass = false
					break
				}
			}
			if !pass {
				r.pc = in.C
				continue
			}
			r.pc++

		case OpHook:
			if hook := eng.Hook(); hook != nil {
				if c := &r.cursors[in.A]; c.curIsNode {
					hook(c.curNode)
				}
			}
			r.pc++

		case OpLet:
			spec := &p.doms[in.B]
			seq, ids, sums, err := eng.BindingSeq(spec.expr, r.env)
			if err != nil {
				return r.fail(err)
			}
			r.env.Bind(p.vars[in.A], seq, ids, sums)
			r.pc++

		case OpWhere:
			ok, err := eng.EvalBoolExpr(p.exprs[in.A], r.env)
			if err != nil {
				return r.fail(err)
			}
			if !ok {
				r.pc = in.C
				continue
			}
			r.pc++

		case OpEvalPush:
			v, err := eng.EvalExpr(p.exprs[in.A], r.env)
			if err != nil {
				return r.fail(err)
			}
			r.stack = append(r.stack, emitFrame{seq: v})
			r.pc++

		case OpEmitSeq:
			f := &r.stack[len(r.stack)-1]
			if f.pos < len(f.seq) {
				it := f.seq[f.pos]
				f.pos++
				// pc stays parked on this instruction; the next pull
				// re-enters here and emits the following item.
				return it, true, nil
			}
			r.stack = r.stack[:len(r.stack)-1]
			r.pc = in.C

		case OpIterEmit:
			if err := eng.CheckCancel(); err != nil {
				return r.fail(err)
			}
			c := &r.cursors[in.A]
			if c.pos >= len(c.ids) {
				r.pc = in.C
				continue
			}
			id := c.ids[c.pos]
			c.pos++
			if hook := eng.Hook(); hook != nil {
				hook(id)
			}
			if c.textTail {
				if r.sc == nil {
					r.sc = storage.NewScratch()
				}
				buf, err := p.store.TextScratch(r.sc, id)
				if err != nil {
					return r.fail(err)
				}
				// pc parked: the next pull advances the cursor.
				return string(buf), true, nil
			}
			return id, true, nil

		default:
			return r.fail(fmt.Errorf("vm: invalid opcode %v at pc %d", in.Op, r.pc))
		}
	}
}
