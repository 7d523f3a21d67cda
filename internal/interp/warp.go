package interp

import (
	"fmt"

	"repro/internal/ir"
)

// Warp-style batched work-item execution: the work-items of a group run
// in fixed-width batches ("warps") with ONE fetch/decode per instruction
// per warp. Register homes are split by the uniformity analysis
// (warp_compile.go): warp-invariant registers live in a single shared
// file per warp and their instructions execute once per warp (wmOnce);
// divergent registers live in each lane's own file and their
// instructions loop over the live lanes (wmLane). At a branch on a
// divergent condition, a call, or a trap, the warp SPILLS: the shared
// registers are broadcast into every lane file and the lanes continue
// on the unmodified per-item scalar path (vm.go), re-forming the warp
// at the next barrier when every surviving lane arrives at the same
// resume pc with a single frame.
//
// Equivalence with the cooperative scalar engine relies on the same
// contract the scalar engine itself shares with the fully concurrent
// tree-walker: between barriers, work-items of a group do not race on
// memory (racing kernels are undefined on any engine and on real
// hardware). Under that contract, lockstep vector interleaving and
// run-to-barrier scalar interleaving produce byte-identical memory.

// WarpLaunchStats summarizes the warp execution of one VM launch.
// Occupancy is Lanes / (Warps * Width); Spills counts divergence
// fallbacks onto the scalar per-item path, Reforms the barrier
// re-formations back into vector dispatch.
type WarpLaunchStats struct {
	Kernel  string
	Width   int
	Warps   int64
	Lanes   int64
	Spills  int64
	Reforms int64
}

// WarpStatsSink receives per-launch warp statistics (Machine.WarpStats);
// the accelOS runtime adapts these onto its telemetry registry.
type WarpStatsSink interface {
	ObserveWarpLaunch(WarpLaunchStats)
}

// flushWarpStats publishes the launch's warp counters into the kernel
// profile and the machine's stats sink once the launch retires.
func (l *launchCtx) flushWarpStats() {
	w := l.warps.Load()
	if w == 0 {
		return
	}
	st := WarpLaunchStats{
		Kernel:  l.fn.Name,
		Width:   l.prog.warpWidth,
		Warps:   w,
		Lanes:   l.warpLanes.Load(),
		Spills:  l.warpSpills.Load(),
		Reforms: l.warpReforms.Load(),
	}
	if l.kp != nil {
		l.kp.warps.Add(st.Warps)
		l.kp.warpLanes.Add(st.Lanes)
		l.kp.warpSpills.Add(st.Spills)
		l.kp.warpReforms.Add(st.Reforms)
	}
	if s := l.m.WarpStats; s != nil {
		s.ObserveWarpLaunch(st)
	}
}

// warp is one lane batch of a work-group. items holds the surviving
// (non-retired) lanes in local-id order; uregp is the shared file the
// uniform registers live in while the warp executes in vector mode.
type warp struct {
	items  []*wiState
	width  int
	uregp  *[]Value
	pc     int32
	steps  int64
	vector bool
}

// runGroupWarp is the warp-mode replacement for runGroupVM's round
// loop: the group's items are partitioned into warps, and each round
// every warp advances to its next barrier — in vector dispatch while
// control flow is uniform, on the scalar per-item path after a
// divergence spill.
func (l *launchCtx) runGroupWarp(gr *groupRunner, g *vmGroup, size, width int, argPatch []Value) error {
	kcf := l.kcf
	warps := make([]*warp, 0, (size+width-1)/width)
	for base := 0; base < size; base += width {
		n := size - base
		if n > width {
			n = width
		}
		w := &warp{width: width, uregp: kcf.getRegs(), pc: 0, vector: true}
		uregs := *w.uregp
		copy(uregs, l.args)
		for pi, la := range l.locals {
			uregs[la.idx] = argPatch[pi]
		}
		for i := base; i < base+n; i++ {
			w.items = append(w.items, &gr.items[i])
		}
		warps = append(warps, w)
		l.warps.Add(1)
		l.warpLanes.Add(int64(n))
	}
	defer func() {
		for _, w := range warps {
			putRegs(w.uregp)
		}
	}()
	if gp := g.prof; gp != nil && gp.perBlock {
		for _, w := range warps {
			gp.enterBlockN(kcf, 0, int64(len(w.items)))
		}
	}

	live := size
	for live > 0 {
		for _, w := range warps {
			if len(w.items) == 0 {
				continue
			}
			if !w.vector && g.tryReform(w) {
				l.warpReforms.Add(1)
			}
			if w.vector {
				if err := g.warpResume(w); err != nil {
					return l.groupFault(gr, g, err)
				}
				if w.vector {
					// The warp stayed uniform: it either arrived at a
					// barrier or retired wholesale.
					if w.items[0].status == wiDone {
						live -= len(w.items)
						w.items = w.items[:0]
					}
					continue
				}
				l.warpSpills.Add(1)
				// Spilled mid-round: the lanes still owe this round
				// their run to the next barrier — fall through.
			}
			idx := 0
			for idx < len(w.items) {
				wi := w.items[idx]
				if err := g.resume(wi); err != nil {
					g.faultWI = wi
					return l.groupFault(gr, g, err)
				}
				if wi.status == wiDone {
					w.items = append(w.items[:idx], w.items[idx+1:]...)
					live--
					continue
				}
				idx++
			}
		}
	}
	if g.prof != nil {
		l.kp.flush(g.prof)
	}
	return nil
}

// groupFault is the shared fault path of the scalar and warp group
// runners: release pooled state, count the fault, and tag the error
// with the faulting work-item's global id (g.faultWI).
func (l *launchCtx) groupFault(gr *groupRunner, g *vmGroup, err error) error {
	wi := g.faultWI
	var lid [3]int64
	if wi != nil {
		lid = wi.lid
	}
	gid := [3]int64{
		g.group[0]*l.nd.Local[0] + lid[0],
		g.group[1]*l.nd.Local[1] + lid[1],
		g.group[2]*l.nd.Local[2] + lid[2],
	}
	g.release(gr)
	if l.kp != nil {
		l.kp.faults.Add(1)
		if g.prof != nil {
			l.kp.flush(g.prof)
		}
	}
	return fmt.Errorf("interp: work-item global id (%d,%d,%d): %w", gid[0], gid[1], gid[2], err)
}

// tryReform re-enters vector dispatch after a divergence spill: legal
// when every surviving lane is suspended at the same barrier-resume pc
// with a single frame. The shared file is re-gathered from lane 0 —
// for any uniform register whose value can still be read, SSA
// dominance guarantees every surviving lane executed its defining
// instruction with warp-invariant operands, so all lane copies agree.
func (g *vmGroup) tryReform(w *warp) bool {
	cf := g.l.kcf
	pc := int32(-1)
	for _, wi := range w.items {
		if wi.status != wiBarrier || len(wi.frames) != 1 {
			return false
		}
		fpc := wi.frames[0].pc
		if pc < 0 {
			pc = fpc
		} else if fpc != pc {
			return false
		}
	}
	if pc < 0 || !cf.reformPC[pc] {
		return false
	}
	uregs := *w.uregp
	l0 := *w.items[0].frames[0].regp
	for _, r := range cf.uniformRegs {
		uregs[r] = l0[r]
	}
	w.pc = pc
	w.vector = true
	return true
}

// warpResume runs a warp's vector dispatch until its next suspension
// point (barrier, wholesale return, or divergence spill), converting
// traps into errors. The faulting lane is left in g.faultWI.
func (g *vmGroup) warpResume(w *warp) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if t, ok := r.(trap); ok {
				err = t
				return
			}
			err = fmt.Errorf("interp: panic: %v", r)
		}
	}()
	g.warpExec(w)
	return nil
}

// warpSpill broadcasts the shared registers into every lane file and
// rewinds the lanes to re-execute pc on the scalar path.
func (g *vmGroup) warpSpill(w *warp, pc int32) {
	cf := g.l.kcf
	uregs := *w.uregp
	for _, wi := range w.items {
		lr := *wi.frames[0].regp
		for _, r := range cf.uniformRegs {
			lr[r] = uregs[r]
		}
		wi.frames[0].pc = pc
		wi.status = wiRunning
	}
	w.vector = false
}

// warpExec is the vector dispatch loop: one fetch/decode per
// instruction per warp. Instruction cost is charged per lane (n steps
// per dispatch), so the launch instruction budget is engine-invariant;
// the same holds for the sampled execution profile counts.
func (g *vmGroup) warpExec(w *warp) {
	l := g.l
	m := l.m
	cf := l.kcf
	code := cf.code
	wmode := cf.wmode
	uniform := cf.uniform
	uregs := *w.uregp
	lanes := w.items
	n := int64(len(lanes))
	l0regs := *lanes[0].frames[0].regp
	pc := w.pc
	steps := w.steps
	gp := g.prof
	g.faultWI = lanes[0]

	// uget resolves a wmOnce operand: uniform registers live in the
	// shared file; the only divergent-homed operand a once-instruction
	// can read is the phi-cycle scratch, whose lane-0 copy is
	// warp-invariant exactly when the analysis proved the result
	// uniform.
	uget := func(r int32) *Value {
		if uniform[r] {
			return &uregs[r]
		}
		return &l0regs[r]
	}

	for {
		in := &code[pc]
		mode := wmode[pc]
		if mode == wmSpill {
			w.pc = pc
			w.steps = 0
			if steps > 0 {
				l.addSteps(steps)
			}
			g.warpSpill(w, pc)
			return
		}
		pc++
		steps += n
		if steps >= stepBatch {
			l.addSteps(steps)
			steps = 0
		}
		if gp != nil {
			gp.instrs += n
			if gp.perOp {
				gp.opcodes[in.op] += n
			}
		}
		switch mode {
		case wmOnce:
			g.faultWI = lanes[0]
			switch in.op {
			case opAllocaLocal:
				r := g.locals[in.a]
				if r == nil {
					r = g.ar.alloc(in.imm, ir.Local)
					g.locals[in.a] = r
				}
				uregs[in.dst] = Value{K: ir.Pointer, P: Ptr{R: r}}
			case opStore:
				m.store(kindTypes[in.kind], *uget(in.a), uget(in.b).P)
			case opBinStore:
				m.store(kindTypes[in.kind], binOp(ir.BinKind(in.sub), kindTypes[in.kind], *uget(in.a), *uget(in.b)), uget(in.c).P)
			case opGEP:
				base := uget(in.a).P
				if base.IsNull() {
					panic(trap{"gep on null pointer"})
				}
				uregs[in.dst] = Value{K: ir.Pointer, P: Ptr{R: base.R, Off: base.Off + uget(in.b).I*in.imm}}
			case opGEPConst:
				base := uget(in.a).P
				if base.IsNull() {
					panic(trap{"gep on null pointer"})
				}
				uregs[in.dst] = Value{K: ir.Pointer, P: Ptr{R: base.R, Off: base.Off + in.imm}}
			case opBin:
				uregs[in.dst] = fastBin(ir.BinKind(in.sub), in.kind, uget(in.a), uget(in.b))
			case opCmp:
				uregs[in.dst] = BoolV(fastCmp(ir.CmpPred(in.sub), uget(in.a), uget(in.b)))
			case opMove:
				uregs[in.dst] = *uget(in.a)
			case opAddI32:
				uregs[in.dst] = Value{K: ir.I32, I: int64(int32(uget(in.a).I + uget(in.b).I))}
			case opSubI32:
				uregs[in.dst] = Value{K: ir.I32, I: int64(int32(uget(in.a).I - uget(in.b).I))}
			case opMulI32:
				uregs[in.dst] = Value{K: ir.I32, I: int64(int32(uget(in.a).I * uget(in.b).I))}
			case opAndI32:
				uregs[in.dst] = Value{K: ir.I32, I: int64(int32(uget(in.a).I & uget(in.b).I))}
			case opOrI32:
				uregs[in.dst] = Value{K: ir.I32, I: int64(int32(uget(in.a).I | uget(in.b).I))}
			case opXorI32:
				uregs[in.dst] = Value{K: ir.I32, I: int64(int32(uget(in.a).I ^ uget(in.b).I))}
			case opAddI64:
				uregs[in.dst] = Value{K: ir.I64, I: uget(in.a).I + uget(in.b).I}
			case opAddF32:
				uregs[in.dst] = Value{K: ir.F32, F: float64(float32(uget(in.a).F + uget(in.b).F))}
			case opSubF32:
				uregs[in.dst] = Value{K: ir.F32, F: float64(float32(uget(in.a).F - uget(in.b).F))}
			case opMulF32:
				uregs[in.dst] = Value{K: ir.F32, F: float64(float32(uget(in.a).F * uget(in.b).F))}
			case opDivF32:
				uregs[in.dst] = Value{K: ir.F32, F: float64(float32(uget(in.a).F / uget(in.b).F))}
			case opCast:
				uregs[in.dst] = castOp(ir.CastKind(in.sub), kindTypes[in.kind], *uget(in.a))
			case opSelect:
				if uget(in.a).Bool() {
					uregs[in.dst] = *uget(in.b)
				} else {
					uregs[in.dst] = *uget(in.c)
				}
			case opWI:
				dim := in.imm
				if in.a >= 0 {
					dim = uget(in.a).I
					if dim < 0 || dim > 2 {
						dim = 0
					}
				}
				var v Value
				switch in.sub {
				case wiGroupID:
					v = LongV(g.group[dim])
				case wiNumGroups:
					v = LongV(l.ng[dim])
				case wiLocalSize:
					v = LongV(l.nd.Local[dim])
				case wiGlobalSize:
					v = LongV(l.nd.Global[dim])
				case wiGlobalOffset:
					v = LongV(0)
				case wiWorkDim:
					v = IntV(int64(l.nd.Dims))
				}
				uregs[in.dst] = v
			case opMath:
				x := uget(in.a).F
				var y float64
				if in.b >= 0 {
					y = uget(in.b).F
				}
				uregs[in.dst] = evalMath(in.sub, in.kind, x, y)
			case opJump:
				pc = int32(in.imm)
				if gp != nil && gp.perBlock {
					gp.enterBlockN(cf, pc, n)
				}
			case opCondJump:
				if uget(in.a).Bool() {
					pc = in.b
				} else {
					pc = in.c
				}
				if gp != nil && gp.perBlock {
					gp.enterBlockN(cf, pc, n)
				}
			case opCmpJump:
				if fastCmp(ir.CmpPred(in.sub), uget(in.a), uget(in.b)) {
					pc = in.c
				} else {
					pc = int32(in.imm)
				}
				if gp != nil && gp.perBlock {
					gp.enterBlockN(cf, pc, n)
				}
			case opBinBin:
				t := i32Bin(ir.BinKind(in.sub), uget(in.a).I, uget(in.b).I)
				var r int64
				if in.imm&bbSwapped != 0 {
					r = i32Bin(ir.BinKind(in.imm&0xff), uget(in.c).I, t)
				} else {
					r = i32Bin(ir.BinKind(in.imm&0xff), t, uget(in.c).I)
				}
				uregs[in.dst] = Value{K: ir.I32, I: r}
			case opBinCmpJump:
				v := i32Bin(ir.BinKind(in.sub), uget(in.a).I, uget(in.b).I)
				uregs[in.dst] = Value{K: ir.I32, I: v}
				x, y := v, uget(in.args[1]).I
				if in.args[0]&bcjSwapped != 0 {
					x, y = y, x
				}
				if i32Cmp(ir.CmpPred(in.args[0]&0xffff), x, y) {
					pc = in.c
				} else {
					pc = int32(in.imm)
				}
				if gp != nil && gp.perBlock {
					gp.enterBlockN(cf, pc, n)
				}
			default:
				panic(trap{"warp: once-mode dispatch of unexpected opcode"})
			}

		case wmLane:
			for _, wi := range lanes {
				g.faultWI = wi
				lr := *wi.frames[0].regp
				switch in.op {
				case opAlloca:
					r := g.ar.alloc(in.imm, ir.AddrSpace(in.sub))
					lr[in.dst] = Value{K: ir.Pointer, P: Ptr{R: r}}
				case opAllocaLocal:
					r := g.locals[in.a]
					if r == nil {
						r = g.ar.alloc(in.imm, ir.Local)
						g.locals[in.a] = r
					}
					lr[in.dst] = Value{K: ir.Pointer, P: Ptr{R: r}}
				case opLoad:
					lr[in.dst] = m.load(kindTypes[in.kind], g.lv(lr, uregs, in.a).P)
				case opStore:
					m.store(kindTypes[in.kind], *g.lv(lr, uregs, in.a), g.lv(lr, uregs, in.b).P)
				case opGEP:
					base := g.lv(lr, uregs, in.a).P
					if base.IsNull() {
						panic(trap{"gep on null pointer"})
					}
					lr[in.dst] = Value{K: ir.Pointer, P: Ptr{R: base.R, Off: base.Off + g.lv(lr, uregs, in.b).I*in.imm}}
				case opGEPConst:
					base := g.lv(lr, uregs, in.a).P
					if base.IsNull() {
						panic(trap{"gep on null pointer"})
					}
					lr[in.dst] = Value{K: ir.Pointer, P: Ptr{R: base.R, Off: base.Off + in.imm}}
				case opBin:
					lr[in.dst] = fastBin(ir.BinKind(in.sub), in.kind, g.lv(lr, uregs, in.a), g.lv(lr, uregs, in.b))
				case opBinBin:
					t := i32Bin(ir.BinKind(in.sub), g.lv(lr, uregs, in.a).I, g.lv(lr, uregs, in.b).I)
					var r int64
					if in.imm&bbSwapped != 0 {
						r = i32Bin(ir.BinKind(in.imm&0xff), g.lv(lr, uregs, in.c).I, t)
					} else {
						r = i32Bin(ir.BinKind(in.imm&0xff), t, g.lv(lr, uregs, in.c).I)
					}
					lr[in.dst] = Value{K: ir.I32, I: r}
				case opCmp:
					lr[in.dst] = BoolV(fastCmp(ir.CmpPred(in.sub), g.lv(lr, uregs, in.a), g.lv(lr, uregs, in.b)))
				case opMove:
					lr[in.dst] = *g.lv(lr, uregs, in.a)
				case opAddI32:
					lr[in.dst] = Value{K: ir.I32, I: int64(int32(g.lv(lr, uregs, in.a).I + g.lv(lr, uregs, in.b).I))}
				case opSubI32:
					lr[in.dst] = Value{K: ir.I32, I: int64(int32(g.lv(lr, uregs, in.a).I - g.lv(lr, uregs, in.b).I))}
				case opMulI32:
					lr[in.dst] = Value{K: ir.I32, I: int64(int32(g.lv(lr, uregs, in.a).I * g.lv(lr, uregs, in.b).I))}
				case opAndI32:
					lr[in.dst] = Value{K: ir.I32, I: int64(int32(g.lv(lr, uregs, in.a).I & g.lv(lr, uregs, in.b).I))}
				case opOrI32:
					lr[in.dst] = Value{K: ir.I32, I: int64(int32(g.lv(lr, uregs, in.a).I | g.lv(lr, uregs, in.b).I))}
				case opXorI32:
					lr[in.dst] = Value{K: ir.I32, I: int64(int32(g.lv(lr, uregs, in.a).I ^ g.lv(lr, uregs, in.b).I))}
				case opAddI64:
					lr[in.dst] = Value{K: ir.I64, I: g.lv(lr, uregs, in.a).I + g.lv(lr, uregs, in.b).I}
				case opAddF32:
					lr[in.dst] = Value{K: ir.F32, F: float64(float32(g.lv(lr, uregs, in.a).F + g.lv(lr, uregs, in.b).F))}
				case opSubF32:
					lr[in.dst] = Value{K: ir.F32, F: float64(float32(g.lv(lr, uregs, in.a).F - g.lv(lr, uregs, in.b).F))}
				case opMulF32:
					lr[in.dst] = Value{K: ir.F32, F: float64(float32(g.lv(lr, uregs, in.a).F * g.lv(lr, uregs, in.b).F))}
				case opDivF32:
					lr[in.dst] = Value{K: ir.F32, F: float64(float32(g.lv(lr, uregs, in.a).F / g.lv(lr, uregs, in.b).F))}
				case opBinStore:
					m.store(kindTypes[in.kind], binOp(ir.BinKind(in.sub), kindTypes[in.kind], *g.lv(lr, uregs, in.a), *g.lv(lr, uregs, in.b)), g.lv(lr, uregs, in.c).P)
				case opLoadBinStore:
					t := kindTypes[in.kind]
					v := m.load(t, g.lv(lr, uregs, in.a).P)
					x := *g.lv(lr, uregs, in.b)
					if in.sub&lbsSwapped != 0 {
						v, x = x, v
					}
					m.store(t, binOp(ir.BinKind(in.sub&^lbsSwapped), t, v, x), g.lv(lr, uregs, in.c).P)
				case opLoadIdx:
					base := g.lv(lr, uregs, in.a).P
					if base.IsNull() {
						panic(trap{"gep on null pointer"})
					}
					lr[in.dst] = m.load(kindTypes[in.kind], Ptr{R: base.R, Off: base.Off + g.lv(lr, uregs, in.b).I*in.imm})
				case opLoadOff:
					base := g.lv(lr, uregs, in.a).P
					if base.IsNull() {
						panic(trap{"gep on null pointer"})
					}
					lr[in.dst] = m.load(kindTypes[in.kind], Ptr{R: base.R, Off: base.Off + in.imm})
				case opCast:
					lr[in.dst] = castOp(ir.CastKind(in.sub), kindTypes[in.kind], *g.lv(lr, uregs, in.a))
				case opSelect:
					if g.lv(lr, uregs, in.a).Bool() {
						lr[in.dst] = *g.lv(lr, uregs, in.b)
					} else {
						lr[in.dst] = *g.lv(lr, uregs, in.c)
					}
				case opAtomic:
					lr[in.dst] = m.atomicRMW(ir.AtomicKind(in.sub), kindTypes[in.kind], g.lv(lr, uregs, in.a).P, *g.lv(lr, uregs, in.b))
				case opWI:
					dim := in.imm
					if in.a >= 0 {
						dim = g.lv(lr, uregs, in.a).I
						if dim < 0 || dim > 2 {
							dim = 0
						}
					}
					var v Value
					switch in.sub {
					case wiGlobalID:
						v = LongV(g.group[dim]*l.nd.Local[dim] + wi.lid[dim])
					case wiLocalID:
						v = LongV(wi.lid[dim])
					case wiGroupID:
						v = LongV(g.group[dim])
					case wiNumGroups:
						v = LongV(l.ng[dim])
					case wiLocalSize:
						v = LongV(l.nd.Local[dim])
					case wiGlobalSize:
						v = LongV(l.nd.Global[dim])
					case wiGlobalOffset:
						v = LongV(0)
					case wiWorkDim:
						v = IntV(int64(l.nd.Dims))
					}
					lr[in.dst] = v
				case opMath:
					x := g.lv(lr, uregs, in.a).F
					var y float64
					if in.b >= 0 {
						y = g.lv(lr, uregs, in.b).F
					}
					lr[in.dst] = evalMath(in.sub, in.kind, x, y)
				default:
					panic(trap{"warp: lane-mode dispatch of unexpected opcode"})
				}
			}

		case wmBarrier:
			if gp != nil {
				gp.barriers += n
			}
			for _, wi := range lanes {
				wi.frames[0].pc = pc
				wi.status = wiBarrier
			}
			w.pc = pc
			w.steps = steps
			return

		case wmRet:
			for _, wi := range lanes {
				putRegs(wi.frames[0].regp)
				wi.frames[0] = vmFrame{}
				wi.frames = wi.frames[:0]
				wi.status = wiDone
			}
			w.steps = 0
			if steps > 0 {
				l.addSteps(steps)
			}
			return
		}
	}
}

// lv resolves a wmLane operand register to its home: the warp's shared
// file for uniform registers, the lane file for divergent ones.
func (g *vmGroup) lv(lr, uregs []Value, r int32) *Value {
	if g.l.kcf.uniform[r] {
		return &uregs[r]
	}
	return &lr[r]
}
