package passes

import "repro/internal/ir"

// Inline replaces every call from a kernel to a defined, non-recursive
// function with a copy of the callee's body, transitively, then drops
// the definitions no remaining call reaches. The accelOS transformation
// leaves the scheduling kernel calling its computation function once
// per virtual group and every work-item builtin as an rt_* call; in the
// bytecode VM each of those pushes a frame and takes a register file,
// so inlining turns the transformed kernel into a single frame.
//
// The pass runs after the first mem2reg/constfold/dce/simplifycfg round,
// so callee bodies are already in SSA form: parameters map straight onto
// the call's arguments and multiple returns join in a phi at the head of
// the continuation block. Functions on a call cycle are left as calls
// (the VM's call-depth trap stays the recursion guard), as are callees
// that declare local memory, whose one-region-per-group identity a copy
// per call site would split.
type Inline struct{}

// Name implements Pass.
func (Inline) Name() string { return "inline" }

// Run implements Pass.
func (Inline) Run(m *ir.Module) error {
	kernels := m.Kernels()
	if len(kernels) == 0 {
		return nil
	}
	rec := recursiveFuncs(m)
	inlinable := func(name string) *ir.Function {
		f := m.Lookup(name)
		if f == nil || f.IsDecl() || rec[f] || len(f.Entry().Phis()) > 0 {
			return nil
		}
		returns := false
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpAlloca && in.AllocaSpace == ir.Local {
					return nil
				}
				returns = returns || in.Op == ir.OpRet
			}
		}
		if !returns {
			return nil
		}
		return f
	}
	for _, k := range kernels {
		// Blocks of an inlined body are spliced in right after the call's
		// block, so the scan reaches them next: calls inside a callee are
		// inlined in turn. Call results are substituted in one sweep at
		// the end rather than by a whole-function scan per call.
		subst := make(map[ir.Value]ir.Value)
		for bi := 0; bi < len(k.Blocks); bi++ {
			for i, in := range k.Blocks[bi].Instrs {
				if in.Op != ir.OpCall {
					continue
				}
				if callee := inlinable(in.Callee); callee != nil {
					inlineCall(k, bi, i, callee, subst)
					break
				}
			}
		}
		if len(subst) == 0 {
			continue
		}
		for _, b := range k.Blocks {
			for _, in := range b.Instrs {
				for ai, a := range in.Args {
					for v, ok := subst[a]; ok; v, ok = subst[a] {
						a = v
					}
					in.Args[ai] = a
				}
			}
		}
	}
	sweepUncalled(m)
	return nil
}

// inlineCall replaces the call at f.Blocks[bi].Instrs[i] with a copy of
// callee's body: the call's block branches into the copied entry, every
// copied return branches to a continuation block holding the
// instructions after the call, and the call's result becomes the
// returned value (a phi when there are several returns), recorded in
// subst for the caller to substitute.
func inlineCall(f *ir.Function, bi, i int, callee *ir.Function, subst map[ir.Value]ir.Value) {
	b := f.Blocks[bi]
	call := b.Instrs[i]
	n := len(f.Blocks)

	vmap := make(map[ir.Value]ir.Value, len(callee.Params)+callee.NumInstrs())
	for pi, p := range callee.Params {
		vmap[p] = call.Args[pi]
	}
	bmap := make(map[*ir.Block]*ir.Block, len(callee.Blocks))
	for _, cb := range callee.Blocks {
		bmap[cb] = f.NewBlock(cb.Name + ".")
	}
	cont := f.NewBlock(b.Name + ".cont")

	// Copy instructions first, then remap operands: phis may name values
	// defined later in block order.
	var copies []*ir.Instr
	for _, cb := range callee.Blocks {
		for _, in := range cb.Instrs {
			ni := &ir.Instr{
				Op: in.Op, Ty: in.Ty,
				BinK: in.BinK, CmpK: in.CmpK, CastK: in.CastK, AtomK: in.AtomK,
				Callee:     in.Callee,
				AllocaElem: in.AllocaElem, AllocaCount: in.AllocaCount, AllocaSpace: in.AllocaSpace,
				Scope: in.Scope,
				Args:  append([]ir.Value(nil), in.Args...),
				Then:  bmap[in.Then], Else: bmap[in.Else],
			}
			for _, ib := range in.Incoming {
				ni.Incoming = append(ni.Incoming, bmap[ib])
			}
			vmap[in] = ni
			copies = append(copies, ni)
			bmap[cb].Append(ni)
		}
	}
	var rets []*ir.Instr
	for _, ni := range copies {
		for ai, a := range ni.Args {
			if v, ok := vmap[a]; ok {
				ni.Args[ai] = v
			}
		}
		if ni.Op == ir.OpRet {
			rets = append(rets, ni)
		}
	}

	// Split the call's block: the tail moves to the continuation, and
	// successor phis that named the call's block now enter from there.
	tail := append([]*ir.Instr(nil), b.Instrs[i+1:]...)
	b.Instrs = b.Instrs[:i]
	b.Append(&ir.Instr{Op: ir.OpBr, Ty: ir.VoidT, Then: bmap[callee.Entry()]})
	for _, in := range tail {
		cont.Append(in)
	}
	for _, s := range cont.Succs() {
		for _, phi := range s.Phis() {
			for pi, ib := range phi.Incoming {
				if ib == b {
					phi.Incoming[pi] = cont
				}
			}
		}
	}

	// Returns become branches to the continuation.
	if call.HasResult() {
		if len(rets) == 1 {
			subst[call] = rets[0].Args[0]
		} else {
			phi := &ir.Instr{Op: ir.OpPhi, Ty: call.Ty}
			for _, r := range rets {
				phi.AddIncoming(r.Args[0], r.Block())
			}
			prependInstr(cont, phi)
			subst[call] = phi
		}
	}
	for _, r := range rets {
		rb := r.Block()
		rb.Instrs = rb.Instrs[:len(rb.Instrs)-1]
		rb.Append(&ir.Instr{Op: ir.OpBr, Ty: ir.VoidT, Then: cont})
	}

	// Splice the new blocks in right after the call's block.
	order := make([]*ir.Block, 0, len(f.Blocks))
	order = append(order, f.Blocks[:bi+1]...)
	order = append(order, f.Blocks[n:]...)
	order = append(order, f.Blocks[bi+1:n]...)
	f.Blocks = order
}

// recursiveFuncs returns the defined functions that sit on a call cycle
// (self-recursion included).
func recursiveFuncs(m *ir.Module) map[*ir.Function]bool {
	callees := make(map[*ir.Function][]*ir.Function)
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall {
					continue
				}
				if g := m.Lookup(in.Callee); g != nil && !g.IsDecl() {
					callees[f] = append(callees[f], g)
				}
			}
		}
	}
	rec := make(map[*ir.Function]bool)
	for _, f := range m.Funcs {
		seen := make(map[*ir.Function]bool)
		work := append([]*ir.Function(nil), callees[f]...)
		for len(work) > 0 {
			g := work[len(work)-1]
			work = work[:len(work)-1]
			if g == f {
				rec[f] = true
				break
			}
			if !seen[g] {
				seen[g] = true
				work = append(work, callees[g]...)
			}
		}
	}
	return rec
}

// sweepUncalled drops every non-kernel definition that no call
// reachable from a kernel names. Declarations stay: they cost nothing
// and the verifier resolves builtin calls against them.
func sweepUncalled(m *ir.Module) {
	live := make(map[*ir.Function]bool)
	work := m.Kernels()
	for _, k := range work {
		live[k] = true
	}
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall {
					continue
				}
				if g := m.Lookup(in.Callee); g != nil && !live[g] {
					live[g] = true
					work = append(work, g)
				}
			}
		}
	}
	var dead []string
	for _, f := range m.Funcs {
		if !f.IsDecl() && !live[f] {
			dead = append(dead, f.Name)
		}
	}
	for _, name := range dead {
		m.Remove(name)
	}
}
