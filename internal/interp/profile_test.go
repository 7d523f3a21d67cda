package interp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/clc"
	"repro/internal/ir"
)

// profSrc has the profile-interesting shapes: a data-dependent loop, a
// divergent branch, a helper call and a barrier.
const profSrc = `
int helper(int x) { return x * 3 + 1; }

kernel void prof(global const int* in, global int* out)
{
    local int buf[32];
    int i = (int)get_global_id(0);
    int lid = (int)get_local_id(0);
    buf[lid] = in[i];
    barrier(1);
    int acc = 0;
    int j;
    for (j = 0; j < lid + 1; ++j)
        acc += buf[(lid + j) % 32];
    if (i % 2 == 0)
        acc = helper(acc);
    out[i] = acc;
}
`

func runProf(t *testing.T, prof *Profiler) []int32 {
	t.Helper()
	m := compile(t, profSrc)
	m.Profiler = prof
	const n, wg = 256, 32
	in := m.NewRegion(n*4, ir.Global)
	out := m.NewRegion(n*4, ir.Global)
	iv := make([]int32, n)
	for i := range iv {
		iv[i] = int32(i%13 - 6)
	}
	in.WriteInt32s(0, iv)
	args := []Value{{K: ir.Pointer, P: Ptr{R: in}}, {K: ir.Pointer, P: Ptr{R: out}}}
	if err := m.Launch("prof", args, ND1(n, wg)); err != nil {
		t.Fatalf("launch: %v", err)
	}
	return out.ReadInt32s(0, n)
}

// TestProfiledExecutionParity holds profiled execution byte-identical
// to unprofiled execution (SampleEvery=1 enables counting in every
// group) and checks the collected counts are plausible and complete.
func TestProfiledExecutionParity(t *testing.T) {
	ref := runProf(t, nil)
	prof := NewProfiler(ProfileOptions{PerOpcode: true, PerBlock: true, SampleEvery: 1})
	got := runProf(t, prof)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("out[%d]: profiled %d, unprofiled %d", i, got[i], ref[i])
		}
	}

	snaps := prof.Snapshot()
	if len(snaps) != 1 || snaps[0].Kernel != "prof" {
		t.Fatalf("snapshot = %+v, want one kernel 'prof'", snaps)
	}
	s := snaps[0]
	const groups = 256 / 32
	if s.Groups != groups || s.Sampled != groups {
		t.Fatalf("groups %d sampled %d, want %d at SampleEvery=1", s.Groups, s.Sampled, groups)
	}
	if s.Instrs == 0 {
		t.Fatal("no instructions counted")
	}
	// Every work-item hits the one barrier exactly once.
	if s.Barriers != 256 {
		t.Fatalf("barriers = %d, want 256", s.Barriers)
	}
	if s.Faults != 0 {
		t.Fatalf("faults = %d, want 0", s.Faults)
	}
	var opTotal int64
	for _, oc := range s.Opcodes {
		opTotal += oc.Count
	}
	if opTotal != s.Instrs {
		t.Fatalf("opcode counts sum to %d, instrs %d", opTotal, s.Instrs)
	}
	if len(s.Blocks) == 0 {
		t.Fatal("no block entries counted")
	}
	// The loop body dominates: its block must out-hit function entry.
	var maxHits int64
	for _, bc := range s.Blocks {
		if bc.Hits > maxHits {
			maxHits = bc.Hits
		}
	}
	// 256 items x avg 16.5 loop iterations >> 256 entries.
	if maxHits < 1000 {
		t.Fatalf("hottest block has %d hits, expected a dominant loop body", maxHits)
	}

	var buf bytes.Buffer
	prof.Dump(&buf)
	for _, want := range []string{"kernel prof:", "opcodes:", "blocks:", "barrier"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Dump missing %q:\n%s", want, buf.String())
		}
	}
}

// TestProfilerSampling checks the 1-in-N group sampling: totals-only
// profiling of a 64-group launch at SampleEvery=16 samples exactly 4
// groups, and a single-group launch samples none.
func TestProfilerSampling(t *testing.T) {
	prof := NewProfiler(ProfileOptions{SampleEvery: 16})
	runProf(t, prof) // 8 groups: not enough for a sample yet
	s := prof.Snapshot()[0]
	if s.Groups != 8 || s.Sampled != 0 {
		t.Fatalf("groups %d sampled %d, want 8/0", s.Groups, s.Sampled)
	}
	for i := 0; i < 7; i++ {
		runProf(t, prof)
	}
	s = prof.Snapshot()[0]
	if s.Groups != 64 || s.Sampled != 4 {
		t.Fatalf("groups %d sampled %d, want 64/4", s.Groups, s.Sampled)
	}
	if s.Instrs == 0 {
		t.Fatal("sampled groups counted no instructions")
	}
	if len(s.Opcodes) != 0 || len(s.Blocks) != 0 {
		t.Fatal("totals-only options collected per-opcode/per-block data")
	}
}

// TestProfilerFaultCounting checks faults are recorded even for
// unsampled groups.
func TestProfilerFaultCounting(t *testing.T) {
	const src = `
kernel void oops(global int* out) { out[get_global_id(0)] = out[0] / (int)get_global_id(0); }
`
	m := compile(t, src)
	prof := NewProfiler(ProfileOptions{SampleEvery: 1 << 20}) // never samples
	m.Profiler = prof
	out := m.NewRegion(64*4, ir.Global)
	err := m.Launch("oops", []Value{{K: ir.Pointer, P: Ptr{R: out}}}, ND1(64, 64))
	if err == nil {
		t.Fatal("expected division-by-zero fault")
	}
	s := prof.Snapshot()[0]
	if s.Faults != 1 {
		t.Fatalf("faults = %d, want 1", s.Faults)
	}
	if s.Sampled != 0 {
		t.Fatalf("sampled = %d, want 0", s.Sampled)
	}
}

// callLoopSrc runs a call inside a loop whose callee loops and branches
// itself, with a barrier in the caller's loop: block entries on call
// entry, on jumps inside the callee and on back edges all count.
const callLoopSrc = `
int tri(int n)
{
    int s = 0;
    int k;
    for (k = 0; k <= n; ++k) {
        if (k % 3 == 0)
            s += k;
        else
            s -= 1;
    }
    return s;
}

kernel void calls(global const int* in, global int* out)
{
    int i = (int)get_global_id(0);
    int acc = 0;
    int r;
    for (r = 0; r < 3; ++r) {
        acc += tri((in[i] + r) & 7);
        barrier(1);
    }
    out[i] = acc;
}
`

// profileDigest renders the exact counts of one kernel profile.
func profileDigest(s KernelProfileSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "instrs=%d barriers=%d\n", s.Instrs, s.Barriers)
	for _, oc := range s.Opcodes {
		fmt.Fprintf(&b, "op %s=%d\n", oc.Name, oc.Count)
	}
	for _, bc := range s.Blocks {
		fmt.Fprintf(&b, "block %s/%s=%d\n", bc.Fn, bc.Block, bc.Hits)
	}
	return b.String()
}

// profGolden and callsGolden are the exact fully sampled profiles of
// profSrc and callLoopSrc over 256 items in groups of 32. Counts are
// engine-invariant: the warp loop attributes one count per live lane.
const profGolden = `instrs=44544 barriers=256
op add.i32=17280
op cast=5504
op jump=4736
op cmp+jump=4736
op bin=4480
op gep+load=4480
op move=640
op store=512
op gep=512
op wi=512
op ret=384
op alloca.local=256
op barrier=256
op call=128
op mul.i32=128
block prof/for.cond1=4480
block prof/for.body2=4224
block prof/entry0=256
block prof/for.end4=256
block prof/if.end6=256
block helper/entry0=128
block prof/(edge-copies)=128
block prof/if.then5=128
`

const callsGolden = `instrs=38398 barriers=768
op cmp+jump=9252
op add.i32=7566
op move=5778
op bin=3730
op jump=3730
op sub.i32=2198
op cast=1280
op ret=1024
op barrier=768
op call=768
op gep+load=768
op and.i32=768
op store=256
op gep=256
op wi=256
block tri/for.body2=3730
block tri/if.end6=3730
block tri/if.else7=2198
block tri/if.then5=1532
block calls/for.body2=768
block tri/entry0=768
block tri/for.end4=768
block calls/entry0=256
block calls/for.end4=256
`

// callsInlinedGolden is callsGolden with tri inlined: the 768 calls
// and their 768 returns are gone, tri's entry block merges into the
// caller's loop body, and its other blocks count under calls/.
const callsInlinedGolden = `instrs=36862 barriers=768
op cmp+jump=9252
op add.i32=7566
op move=5778
op bin=3730
op jump=3730
op sub.i32=2198
op cast=1280
op barrier=768
op gep+load=768
op and.i32=768
op store=256
op gep=256
op wi=256
op ret=256
block calls/for.body2.7=3730
block calls/if.end6.10=3730
block calls/if.else7.11=2198
block calls/if.then5.9=1532
block calls/for.body2=768
block calls/for.end4.8=768
block calls/entry0=256
block calls/for.end4=256
`

// TestProfileGoldenCounts pins the exact counts a fully sampled profile
// collects — instructions, barriers, per-opcode and per-block — on the
// scalar dispatch loop and on the warp loop (whose divergence spills
// run the scalar loop). Plausibility checks alone would not notice a
// dropped block-entry or barrier hook. The prof and calls cases compile
// with inlining off so their calls stay calls and keep call-entry
// counting pinned; calls/inlined pins the same kernel as O1 runs it,
// one frame with the callee's blocks spliced in.
func TestProfileGoldenCounts(t *testing.T) {
	noInline := []string{"inline"}
	cases := []struct {
		name, src, kernel string
		warp              int
		disable           []string
		want              string
	}{
		{"prof/scalar", profSrc, "prof", 0, noInline, profGolden},
		{"prof/warp", profSrc, "prof", DefaultWarpWidth, noInline, profGolden},
		{"calls/scalar", callLoopSrc, "calls", 0, noInline, callsGolden},
		{"calls/warp", callLoopSrc, "calls", DefaultWarpWidth, noInline, callsGolden},
		{"calls/inlined", callLoopSrc, "calls", 0, nil, callsInlinedGolden},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mod, err := clc.Compile(tc.src, "test")
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			m := NewMachine(mod)
			m.UseProgram(CompileModuleOpts(mod, CompileOpts{Opt: true, WarpWidth: tc.warp, Disable: tc.disable}))
			prof := NewProfiler(ProfileOptions{PerOpcode: true, PerBlock: true, SampleEvery: 1})
			m.Profiler = prof
			const n, wg = 256, 32
			in := m.NewRegion(n*4, ir.Global)
			out := m.NewRegion(n*4, ir.Global)
			iv := make([]int32, n)
			for i := range iv {
				iv[i] = int32(i%13 - 6)
			}
			in.WriteInt32s(0, iv)
			args := []Value{{K: ir.Pointer, P: Ptr{R: in}}, {K: ir.Pointer, P: Ptr{R: out}}}
			if err := m.Launch(tc.kernel, args, ND1(n, wg)); err != nil {
				t.Fatalf("launch: %v", err)
			}
			snaps := prof.Snapshot()
			if len(snaps) != 1 {
				t.Fatalf("snapshot = %+v, want one kernel", snaps)
			}
			if warped := snaps[0].Warps > 0; warped != (tc.warp > 0) {
				t.Fatalf("warps formed = %d at WarpWidth %d", snaps[0].Warps, tc.warp)
			}
			if got := profileDigest(snaps[0]); got != tc.want {
				t.Errorf("profile counts changed:\n got:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}
