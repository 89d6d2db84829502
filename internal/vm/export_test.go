package vm

// withPanic returns a copy of p whose instruction at pc reads past its
// operand pool: running it panics inside the dispatch loop.
func withPanic(p *Program, pc int) *Program {
	q := *p
	q.instrs = append([]Instr(nil), p.instrs...)
	q.instrs[pc] = Instr{Op: OpEvalPush, A: int32(len(p.exprs))}
	return &q
}

// joinIndexBytes sums the join indexes p built at compile time.
func (p *Program) joinIndexBytes() int {
	n := 0
	for i := range p.preds {
		if idx := p.preds[i].idx; idx != nil {
			n += idx.SizeBytes()
		}
	}
	return n
}
