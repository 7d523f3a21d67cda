package passes

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

// firstRound is the O1 prefix Inline runs behind: callee bodies arrive
// in SSA form.
var firstRound = []Pass{Mem2Reg{}, ConstFold{}, DCE{}, SimplifyCFG{}}

// inlineOnly compiles src, runs the first O1 round and then Inline alone,
// so tests see the inliner's own output before any cleanup.
func inlineOnly(t *testing.T, src string) *ir.Module {
	t.Helper()
	m := compile(t, src)
	runPasses(t, m, append(firstRound, Inline{})...)
	return m
}

// callsTo counts the calls in f that name a defined function of m.
func callsTo(m *ir.Module, f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if g := m.Lookup(in.Callee); in.Op == ir.OpCall && g != nil && !g.IsDecl() {
				n++
			}
		}
	}
	return n
}

func TestInlineVoidCallee(t *testing.T) {
	m := inlineOnly(t, `
void put(global int* o, int i, int v) { o[i] = v * 2; }
kernel void k(global int* out)
{
    int i = (int)get_global_id(0);
    put(out, i, i + 1);
}
`)
	k := m.Lookup("k")
	if n := callsTo(m, k); n != 0 {
		t.Fatalf("%d calls left:\n%s", n, k)
	}
	if countOps(k, ir.OpStore) != 1 || countOps(k, ir.OpRet) != 1 {
		t.Errorf("want the callee's store and only the kernel's ret:\n%s", k)
	}
	if m.Lookup("put") != nil {
		t.Error("uncalled definition @put survived the sweep")
	}
}

func TestInlineMultiReturnJoinsInPhi(t *testing.T) {
	m := inlineOnly(t, `
int mag(int x)
{
    if (x > 0) return x;
    return 0 - x;
}
kernel void k(global int* out)
{
    int i = (int)get_global_id(0);
    out[i] = mag(i - 8);
}
`)
	k := m.Lookup("k")
	if n := callsTo(m, k); n != 0 {
		t.Fatalf("%d calls left:\n%s", n, k)
	}
	var joins []*ir.Instr
	for _, b := range k.Blocks {
		if strings.Contains(b.Name, ".cont") {
			joins = append(joins, b.Phis()...)
		}
	}
	if len(joins) != 1 || len(joins[0].Incoming) != 2 {
		t.Fatalf("want one two-armed phi joining the returns in the continuation:\n%s", k)
	}
	if !usedBy(k, joins[0], ir.OpStore) {
		t.Errorf("the stored value is not the return phi:\n%s", k)
	}
}

// usedBy reports whether v is an operand of some op instruction in f.
func usedBy(f *ir.Function, v ir.Value, op ir.Opcode) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != op {
				continue
			}
			for _, a := range in.Args {
				if a == v {
					return true
				}
			}
		}
	}
	return false
}

func TestInlineTransitiveChain(t *testing.T) {
	m := inlineOnly(t, `
int c(int x) { return x + 3; }
int b(int x) { return c(x) * 2; }
int a(int x) { return b(x) - 1; }
kernel void k(global int* out) { out[0] = a(out[1]); }
`)
	k := m.Lookup("k")
	if n := callsTo(m, k); n != 0 {
		t.Fatalf("%d calls left:\n%s", n, k)
	}
	for _, name := range []string{"a", "b", "c"} {
		if m.Lookup(name) != nil {
			t.Errorf("definition @%s survived the sweep", name)
		}
	}
	for _, want := range []string{"add i32", "mul i32", "sub i32"} {
		if !strings.Contains(k.String(), want) {
			t.Errorf("inlined chain lost %q:\n%s", want, k)
		}
	}
}

func TestInlineLoopAndBarrier(t *testing.T) {
	m := inlineOnly(t, `
void reduce(local int* t, int lid)
{
    int s;
    for (s = 16; s > 0; s >>= 1) {
        if (lid < s) t[lid] = t[lid] + t[lid + s];
        barrier(1);
    }
}
kernel void k(global int* out)
{
    local int tile[32];
    int lid = (int)get_local_id(0);
    tile[lid] = lid;
    barrier(1);
    reduce(tile, lid);
    if (lid == 0) out[0] = tile[0];
}
`)
	k := m.Lookup("k")
	if n := callsTo(m, k); n != 0 {
		t.Fatalf("%d calls left:\n%s", n, k)
	}
	if n := countOps(k, ir.OpBarrier); n != 2 {
		t.Errorf("barriers = %d, want the kernel's and the inlined loop's:\n%s", n, k)
	}
	// The callee's loop header phi must now merge edges from kernel
	// blocks: its preheader is the call's block.
	loopPhis := 0
	for _, b := range k.Blocks {
		for _, phi := range b.Phis() {
			for _, ib := range phi.Incoming {
				if ib.Fn != k {
					t.Errorf("phi arm from foreign block %s", ib.Name)
				}
			}
			loopPhis++
		}
	}
	if loopPhis == 0 {
		t.Errorf("inlined loop has no header phi:\n%s", k)
	}
}

func TestInlineRetargetsSuccessorPhis(t *testing.T) {
	m := inlineOnly(t, `
int twice(int x) { return x * 2; }
kernel void k(global int* out)
{
    int v = 5;
    if (out[0] > 0)
        v = twice(out[1]);
    out[2] = v;
}
`)
	k := m.Lookup("k")
	if n := callsTo(m, k); n != 0 {
		t.Fatalf("%d calls left:\n%s", n, k)
	}
	// The join phi's arm for the taken branch must now come from the
	// continuation block that holds the branch, not the split call block.
	var join *ir.Instr
	for _, b := range k.Blocks {
		if ps := b.Phis(); len(ps) == 1 && !strings.Contains(b.Name, ".cont") {
			join = ps[0]
		}
	}
	if join == nil {
		t.Fatalf("no join phi:\n%s", k)
	}
	found := false
	for _, ib := range join.Incoming {
		if strings.Contains(ib.Name, ".cont") {
			found = true
		}
	}
	if !found {
		t.Errorf("join phi arms %v not retargeted to the continuation:\n%s", blockNames(join.Incoming), k)
	}
}

func blockNames(bs []*ir.Block) []string {
	var s []string
	for _, b := range bs {
		s = append(s, b.Name)
	}
	return s
}

func TestInlineLeavesRecursionIntact(t *testing.T) {
	m := inlineOnly(t, `
int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
int odd(int n);
int even(int n) { return n == 0 ? 1 : odd(n - 1); }
int odd(int n) { return n == 0 ? 0 : even(n - 1); }
int wrap(int n) { return fact(n) + even(n); }
kernel void k(global int* out) { out[0] = wrap(out[1]); }
`)
	k := m.Lookup("k")
	// wrap is not on a cycle and inlines; the recursive calls it made
	// stay calls from the kernel.
	if m.Lookup("wrap") != nil {
		t.Error("non-recursive @wrap was not inlined and swept")
	}
	if n := callsTo(m, k); n != 2 {
		t.Errorf("kernel calls = %d, want the 2 recursive calls kept:\n%s", n, k)
	}
	for _, name := range []string{"fact", "even", "odd"} {
		f := m.Lookup(name)
		if f == nil || f.IsDecl() {
			t.Fatalf("recursive @%s was dropped", name)
		}
		if callsTo(m, f) != 1 {
			t.Errorf("@%s lost its recursive call:\n%s", name, f)
		}
	}
}

func TestInlineSweepKeepsKernelsDeclsAndCalled(t *testing.T) {
	m := inlineOnly(t, `
int spin(int n) { return n > 0 ? spin(n - 1) : 0; }
int unused(int x) { return x + 1; }
kernel void a(global int* out) { out[0] = spin(out[1]) + (int)get_global_id(0); }
kernel void b(global int* out) { out[0] = 7; }
`)
	for _, name := range []string{"a", "b"} {
		if f := m.Lookup(name); f == nil || !f.Kernel {
			t.Errorf("kernel @%s dropped", name)
		}
	}
	if f := m.Lookup("spin"); f == nil || f.IsDecl() {
		t.Error("still-called @spin dropped")
	}
	if f := m.Lookup("get_global_id"); f == nil || !f.IsDecl() {
		t.Error("builtin declaration @get_global_id dropped")
	}
	if m.Lookup("unused") != nil {
		t.Error("uncalled @unused survived the sweep")
	}
}

func TestInlineDisabledKeepsCalls(t *testing.T) {
	src := `
int sq(int x) { return x * x; }
kernel void k(global int* out) { out[0] = sq(out[1]); }
`
	m := compile(t, src)
	if err := RunO1(m, "inline"); err != nil {
		t.Fatal(err)
	}
	if n := callsTo(m, m.Lookup("k")); n != 1 || m.Lookup("sq") == nil {
		t.Errorf("RunO1 without inline changed the calls (%d left):\n%s", n, m)
	}
	m = compile(t, src)
	if err := RunO1(m); err != nil {
		t.Fatal(err)
	}
	if n := callsTo(m, m.Lookup("k")); n != 0 || m.Lookup("sq") != nil {
		t.Errorf("RunO1 left %d calls:\n%s", n, m)
	}
}

func TestSimplifyCFGFoldsConstantBranch(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunction("f", ir.I32T)
	bld := ir.NewBuilder(f)
	entry, then, join := bld.Cur, bld.NewBlock("then"), bld.NewBlock("join")
	bld.CondBr(ir.CBool(true), then, join)
	bld.SetInsert(then)
	bld.Br(join)
	bld.SetInsert(join)
	phi := bld.Phi(ir.I32T)
	phi.AddIncoming(ir.CI(10), entry)
	phi.AddIncoming(ir.CI(20), then)
	bld.Ret(phi)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}

	// The dropped edge entry->join loses its phi arm; join stays
	// reachable through then, its phi collapses, and the chain merges.
	runPasses(t, m, SimplifyCFG{})
	if countOps(f, ir.OpCondBr) != 0 || len(f.Blocks) != 1 {
		t.Fatalf("constant branch not folded and merged:\n%s", f)
	}
	ret := f.Blocks[0].Terminator()
	if v, ok := ir.ConstIntValue(ret.Args[0]); !ok || v != 20 {
		t.Errorf("ret %s, want 20 (the arm of the taken path):\n%s", ret.Args[0].Ident(), f)
	}
}
