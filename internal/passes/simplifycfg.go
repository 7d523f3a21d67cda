package passes

import "repro/internal/ir"

// SimplifyCFG turns conditional branches on a constant into
// unconditional ones (pruning the dropped edge's phi arms), removes the
// blocks that leaves unreachable, and merges straight-line block pairs:
// a block ending in an unconditional branch to a block with no other
// predecessor (and no phis) absorbs it. The clc front end emits a
// separate for.post block per loop and mem2reg's store elimination
// leaves such pairs pure straight-line code, so merging them removes one
// dispatched jump per loop iteration in the bytecode VM. Constant
// branches appear once inlining binds a callee's parameters to
// constants, as in rt_group_id's per-dimension ladder.
type SimplifyCFG struct{}

// Name implements Pass.
func (SimplifyCFG) Name() string { return "simplifycfg" }

// Run implements Pass.
func (SimplifyCFG) Run(m *ir.Module) error {
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		foldConstBranches(f)
		removeUnreachable(f)
		mergeBlocks(f)
	}
	return nil
}

// foldConstBranches rewrites every condbr on a constant condition into a
// br to the taken successor. The not-taken successor loses its phi arm
// for this block; removeUnreachable then drops it if nothing else
// reaches it.
func foldConstBranches(f *ir.Function) {
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		c, ok := ir.ConstIntValue(t.Args[0])
		if !ok {
			continue
		}
		taken, dropped := t.Then, t.Else
		if c == 0 {
			taken, dropped = dropped, taken
		}
		if dropped != taken {
			for _, phi := range dropped.Phis() {
				for i, ib := range phi.Incoming {
					if ib == b {
						phi.Args = append(phi.Args[:i], phi.Args[i+1:]...)
						phi.Incoming = append(phi.Incoming[:i], phi.Incoming[i+1:]...)
						break
					}
				}
			}
		}
		b.Instrs = b.Instrs[:len(b.Instrs)-1]
		b.Append(&ir.Instr{Op: ir.OpBr, Ty: ir.VoidT, Then: taken})
	}
}

// mergeBlocks absorbs every block whose only predecessor ends in an
// unconditional branch to it (and which has no phis) into that
// predecessor, following chains, in one sweep: a chain collapses into
// its head, which keeps its position in the block order.
func mergeBlocks(f *ir.Function) {
	npreds := make(map[*ir.Block]int, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			npreds[s]++
		}
	}
	gone := make(map[*ir.Block]bool)
	for _, b := range f.Blocks {
		if gone[b] {
			continue
		}
		for {
			t := b.Terminator()
			if t == nil || t.Op != ir.OpBr {
				break
			}
			c := t.Then
			if c == b || c == f.Entry() || npreds[c] != 1 || len(c.Phis()) > 0 {
				break
			}
			// Absorb c: drop b's branch, re-append c's instructions
			// (keeping their block back-pointers consistent), and
			// retarget any phi in c's successors that named c as the
			// incoming edge. Predecessor counts are unchanged: c's
			// out-edges now leave from b.
			b.Instrs = b.Instrs[:len(b.Instrs)-1]
			for _, in := range c.Instrs {
				b.Append(in)
			}
			for _, s := range c.Succs() {
				for _, phi := range s.Phis() {
					for i, ib := range phi.Incoming {
						if ib == c {
							phi.Incoming[i] = b
						}
					}
				}
			}
			gone[c] = true
		}
	}
	if len(gone) == 0 {
		return
	}
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if !gone[b] {
			kept = append(kept, b)
		}
	}
	f.Blocks = kept
}
