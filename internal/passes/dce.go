package passes

import "repro/internal/ir"

// DCE removes result-producing instructions whose values are never used
// and which have no side effects, plus unreachable basic blocks. It runs
// to a fixed point within each function.
type DCE struct{}

// Name implements Pass.
func (DCE) Name() string { return "dce" }

// Run implements Pass.
func (DCE) Run(m *ir.Module) error {
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		removeUnreachable(f)
		// One mark-and-sweep leaves nothing dead behind; only deleting
		// dead alloca stores can kill the values they stored.
		for {
			dceFunc(f)
			if !removeDeadAllocaStores(f) {
				break
			}
		}
	}
	return nil
}

// removeDeadAllocaStores deletes private allocas that are only ever
// written (never loaded, never escaping as a value), together with the
// stores into them. "Never escaping" is the shared AnalyzeAllocas
// definition, the same one mem2reg promotes by, so the two passes agree
// on which memory is private to straight load/store access.
func removeDeadAllocaStores(f *ir.Function) bool {
	onlyStoredInto := make(map[*ir.Instr]bool)
	for al, u := range AnalyzeAllocas(f) {
		if u.WriteOnly() {
			onlyStoredInto[al] = true
		}
	}
	if len(onlyStoredInto) == 0 {
		return false
	}
	changed := false
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca && onlyStoredInto[in] {
				changed = true
				continue
			}
			if in.Op == ir.OpStore {
				if al, ok := in.Args[1].(*ir.Instr); ok && onlyStoredInto[al] {
					changed = true
					continue
				}
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
	return changed
}

// sideEffecting reports whether removing the instruction could change
// observable behaviour. Calls are conservatively treated as effecting.
func sideEffecting(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpStore, ir.OpCall, ir.OpAtomic, ir.OpBarrier, ir.OpBr, ir.OpCondBr, ir.OpRet:
		return true
	case ir.OpBin:
		// Division can trap; keep it even if unused.
		return in.BinK == ir.SDiv || in.BinK == ir.SRem
	case ir.OpLoad:
		// Loads can trap on bad pointers; an unused load of a
		// well-formed alloca is safe, but keep it simple and only drop
		// loads of allocas.
		src, ok := in.Args[0].(*ir.Instr)
		return !(ok && src.Op == ir.OpAlloca)
	}
	return false
}

// dceFunc removes result-producing, effect-free instructions that no
// live instruction uses. Liveness is seeded from side-effecting
// instructions and propagated through operands (mark and sweep), so a
// cycle of phis feeding only each other is dead and removed — the
// one-pass "is it an operand anywhere" test would keep it forever.
func dceFunc(f *ir.Function) {
	live := make(map[*ir.Instr]bool, f.NumInstrs())
	var work []*ir.Instr
	markArgs := func(in *ir.Instr) {
		for _, a := range in.Args {
			if d, ok := a.(*ir.Instr); ok && !live[d] {
				live[d] = true
				work = append(work, d)
			}
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if sideEffecting(in) {
				live[in] = true
				markArgs(in)
			}
		}
	}
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		markArgs(in)
	}
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if !in.HasResult() || live[in] || sideEffecting(in) {
				kept = append(kept, in)
			}
		}
		b.Instrs = kept
	}
}

func removeUnreachable(f *ir.Function) {
	if len(f.Blocks) == 0 {
		return
	}
	reach := make(map[*ir.Block]bool)
	var visit func(b *ir.Block)
	visit = func(b *ir.Block) {
		if reach[b] {
			return
		}
		reach[b] = true
		if t := b.Terminator(); t != nil {
			if t.Then != nil {
				visit(t.Then)
			}
			if t.Else != nil {
				visit(t.Else)
			}
		}
	}
	visit(f.Blocks[0])
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if reach[b] {
			kept = append(kept, b)
		}
	}
	f.Blocks = kept
	prunePhiIncomings(f, reach)
}

// prunePhiIncomings drops phi arms flowing in from blocks outside the
// keep set, collapsing phis left with a single arm onto that value.
func prunePhiIncomings(f *ir.Function, reach map[*ir.Block]bool) {
	for _, b := range f.Blocks {
		for _, in := range b.Phis() {
			args := in.Args[:0]
			inc := in.Incoming[:0]
			for i, ib := range in.Incoming {
				if reach[ib] {
					args = append(args, in.Args[i])
					inc = append(inc, ib)
				}
			}
			in.Args, in.Incoming = args, inc
		}
	}
	collapseTrivialPhis(f)
}
