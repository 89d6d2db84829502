package vm

import (
	"fmt"
	"strings"
)

// Disassemble renders the program as one instruction per line —
// opcode, operands (cursor/pool indexes, jump targets), and the
// compile-time resolution notes (summary paths, containers, costs) —
// so plan changes are diffable in explain output.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program: %d instrs, %d cursors, %d domains, %d preds (size≈%dB)\n",
		len(p.instrs), p.ncur, len(p.doms), len(p.preds), p.sizeEst)
	for pc, in := range p.instrs {
		fmt.Fprintf(&b, "%3d  %-8s", pc, in.Op)
		switch in.Op {
		case OpScan:
			fmt.Fprintf(&b, " c%d <- d%d        ; %s", in.A, in.B, p.doms[in.B].desc)
		case OpLitRestrict, OpJoinRestrict:
			fmt.Fprintf(&b, " c%d, p%d          ; %s", in.A, in.B, p.preds[in.B].desc)
		case OpIter:
			fmt.Fprintf(&b, " c%d -> $%s, done->%d", in.A, p.vars[in.B], in.C)
		case OpDeferred:
			fmt.Fprintf(&b, " c%d, fail->%d", in.A, in.C)
		case OpHook:
			fmt.Fprintf(&b, " c%d", in.A)
		case OpLet:
			fmt.Fprintf(&b, " $%s <- d%d       ; %s", p.vars[in.A], in.B, p.doms[in.B].desc)
		case OpWhere:
			fmt.Fprintf(&b, " e%d, fail->%d     ; %s", in.A, in.C, trunc(p.exprs[in.A].String(), 48))
		case OpEvalPush:
			fmt.Fprintf(&b, " e%d              ; %s", in.A, trunc(p.exprs[in.A].String(), 48))
		case OpEmitSeq:
			fmt.Fprintf(&b, " done->%d", in.C)
		case OpIterEmit:
			fmt.Fprintf(&b, " c%d, done->%d", in.A, in.C)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
