package vm

import (
	"fmt"
	"strings"
)

// Disassemble renders the program as one instruction per line —
// opcode, operands (cursor/pool indexes, jump targets), and the
// compile-time resolution notes (summary paths, containers, costs) —
// so plan changes are diffable in explain output. Each sub-program
// starts with a header naming its FLWOR.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program: %d instrs, %d cursors, %d domains, %d preds", len(p.instrs), p.ncur, len(p.doms), len(p.preds))
	if len(p.subs) > 0 {
		fmt.Fprintf(&b, ", %d subs", len(p.subs))
	}
	fmt.Fprintf(&b, " (size≈%dB)\n", p.sizeEst)
	sub := 0
	for pc, in := range p.instrs {
		if sub < len(p.subs) && p.subs[sub].entry == int32(pc) {
			fmt.Fprintf(&b, "sub s%d: %s\n", sub, trunc(p.subs[sub].x.String(), 72))
			sub++
		}
		fmt.Fprintf(&b, "%3d  %-8s", pc, in.Op)
		switch in.Op {
		case OpScan:
			fmt.Fprintf(&b, " c%d <- d%d        ; %s", in.A, in.B, p.doms[in.B].desc)
		case OpLitRestrict, OpJoinRestrict:
			fmt.Fprintf(&b, " c%d, p%d          ; %s", in.A, in.B, p.preds[in.B].desc)
		case OpIter:
			fmt.Fprintf(&b, " c%d -> $%s, done->%d", in.A, p.vars[in.B].name, in.C)
		case OpDeferred:
			fmt.Fprintf(&b, " c%d, fail->%d", in.A, in.C)
		case OpHook:
			fmt.Fprintf(&b, " c%d", in.A)
		case OpLet:
			fmt.Fprintf(&b, " $%s <- d%d       ; %s", p.vars[in.A].name, in.B, p.doms[in.B].desc)
		case OpWhere:
			fmt.Fprintf(&b, " e%d, fail->%d     ; %s", in.A, in.C, trunc(p.exprs[in.A].String(), 48))
		case OpEvalPush:
			fmt.Fprintf(&b, " e%d              ; %s", in.A, trunc(p.exprs[in.A].String(), 48))
		case OpEmitSeq:
			fmt.Fprintf(&b, " done->%d", in.C)
		case OpIterEmit:
			fmt.Fprintf(&b, " c%d, done->%d", in.A, in.C)
		case OpCollect:
			fmt.Fprintf(&b, " t%d, next->%d", in.A, in.C)
		case OpSort:
			fmt.Fprintf(&b, " t%d              ; %s", in.A, p.sorts[in.A].desc)
		case OpReplay:
			fmt.Fprintf(&b, " t%d, done->%d", in.A, in.C)
		case OpLetOpen:
			fmt.Fprintf(&b, " a%d, depth %d", in.A, in.B)
		case OpAppend, OpAppendOut:
			fmt.Fprintf(&b, " a%d, e%d, next->%d ; %s", in.A, in.B, in.C, trunc(p.exprs[in.B].String(), 48))
		case OpAppendCur:
			fmt.Fprintf(&b, " a%d, c%d, next->%d", in.A, in.B, in.C)
		case OpEmitCtor:
			fmt.Fprintf(&b, " m%d, next->%d    ; %s", in.A, in.C, p.tpls[in.A].desc)
		case OpAppendCtor:
			fmt.Fprintf(&b, " a%d, m%d, next->%d ; %s", in.A, in.B, in.C, p.tpls[in.B].desc)
		case OpRet:
			fmt.Fprintf(&b, " s%d -> a%d", in.A, p.subs[in.A].acc)
		case OpLetBind:
			fmt.Fprintf(&b, " $%s <- a%d", p.vars[in.A].name, in.B)
			if in.C >= 0 {
				fmt.Fprintf(&b, " ; nodes of c%d", in.C)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
