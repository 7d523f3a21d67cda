package parboil

import (
	"strings"
	"testing"

	"repro/internal/accelpass"
	"repro/internal/clc"
	"repro/internal/ir"
	"repro/internal/passes"
)

func TestTwentyFiveKernels(t *testing.T) {
	ks := Kernels()
	if len(ks) != 25 {
		t.Fatalf("registered %d kernels, want 25 (the full Parboil OpenCL set)", len(ks))
	}
	seen := map[string]bool{}
	for _, k := range ks {
		if seen[k.FullName()] {
			t.Errorf("duplicate kernel %s", k.FullName())
		}
		seen[k.FullName()] = true
	}
}

func TestAllKernelsCompile(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.FullName(), func(t *testing.T) {
			mod, err := clc.Compile(k.Source, k.Name)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			f := mod.Lookup(k.Name)
			if f == nil || !f.Kernel {
				t.Fatalf("source does not define kernel %q", k.Name)
			}
		})
	}
}

// TestTransformEquivalence is the flagship correctness test: every
// Parboil kernel must produce bit-identical output buffers when executed
// through the accelOS software scheduler with a handful of physical
// work-groups instead of its full NDRange.
func TestTransformEquivalence(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.FullName(), func(t *testing.T) {
			t.Parallel()
			if err := k.VerifyEquivalence(3); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTransformEquivalenceSingleWorker(t *testing.T) {
	// Degenerate allocation: one physical work-group must still compute
	// everything.
	for _, name := range []string{"bfs/BFS_kernel", "mri-gridding/splitSort", "sgemm/mysgemmNT"} {
		k, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.VerifyEquivalence(1); err != nil {
			t.Error(err)
		}
	}
}

func TestProfilesPlausible(t *testing.T) {
	for _, k := range Kernels() {
		p := k.Profile
		if p.WGSize < 32 || p.WGSize > 1024 {
			t.Errorf("%s: work-group size %d out of range", k.FullName(), p.WGSize)
		}
		if p.NumWGs < 16 {
			t.Errorf("%s: %d work-groups too few for a benchmark-scale grid", k.FullName(), p.NumWGs)
		}
		if p.BaseWGCost <= 0 {
			t.Errorf("%s: non-positive work-group cost", k.FullName())
		}
		if p.Imbalance < 0 || p.Imbalance > 1 || p.SatFrac < 0 || p.SatFrac > 1 ||
			p.MemIntensity < 0 || p.MemIntensity > 1 {
			t.Errorf("%s: profile fractions out of [0,1]", k.FullName())
		}
	}
}

func TestJITMetadata(t *testing.T) {
	small, err := ByName("histo/histo_final")
	if err != nil {
		t.Fatal(err)
	}
	big, err := ByName("mri-q/ComputeQ_GPU")
	if err != nil {
		t.Fatal(err)
	}
	sm := small.jitMeta()
	bm := big.jitMeta()
	if sm.InstrCount <= 0 || bm.InstrCount <= 0 {
		t.Fatalf("instruction counts not computed: %+v %+v", sm, bm)
	}
	if sm.InstrCount >= bm.InstrCount {
		t.Errorf("histo_final (%d instrs) should be smaller than ComputeQ (%d)", sm.InstrCount, bm.InstrCount)
	}
	if sm.Chunk < bm.Chunk {
		t.Errorf("adaptive chunk should not shrink for smaller kernels: %d vs %d", sm.Chunk, bm.Chunk)
	}
	if got := passes.AdaptiveChunk(sm.InstrCount); got != sm.Chunk {
		t.Errorf("chunk %d does not match the §6.4 table for %d instructions (want %d)", sm.Chunk, sm.InstrCount, got)
	}
}

func TestExecConversion(t *testing.T) {
	for _, k := range Kernels() {
		e := k.Exec(7)
		if e.ID != 7 || e.WGSize != k.Profile.WGSize || e.NumWGs != k.Profile.NumWGs {
			t.Errorf("%s: Exec conversion mismatch", k.FullName())
		}
		if e.Chunk < 1 || e.Chunk > 8 {
			t.Errorf("%s: chunk %d outside the adaptive table", k.FullName(), e.Chunk)
		}
		if e.TransLocalBytes < e.LocalBytes {
			t.Errorf("%s: transformed local memory shrank", k.FullName())
		}
	}
}

func TestGoldenBFS(t *testing.T) {
	k, err := ByName("bfs/BFS_kernel")
	if err != nil {
		t.Fatal(err)
	}
	bufs, err := k.RunNative()
	if err != nil {
		t.Fatal(err)
	}
	// Reference: one BFS level in Go over the same CSR graph.
	const n = 512
	row, col := csrGraph(11, n, 4)
	cost := make([]int32, n)
	for i := range cost {
		cost[i] = -1
	}
	cost[0] = 0
	changed := false
	for node := 0; node < n; node++ {
		if cost[node] != 0 {
			continue
		}
		for e := row[node]; e < row[node+1]; e++ {
			if cost[col[e]] < 0 {
				cost[col[e]] = 1
				changed = true
			}
		}
	}
	for i := 0; i < n; i++ {
		if got := Int32At(bufs[2], i); got != cost[i] {
			t.Fatalf("cost[%d] = %d, want %d", i, got, cost[i])
		}
	}
	if (Int32At(bufs[3], 0) == 1) != changed {
		t.Errorf("changed flag mismatch")
	}
}

func TestGoldenSgemm(t *testing.T) {
	k, err := ByName("sgemm/mysgemmNT")
	if err != nil {
		t.Fatal(err)
	}
	bufs, err := k.RunNative()
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	spec := k.Setup()
	a, b := spec.Args[0].F32, spec.Args[1].F32
	for row := 0; row < n; row += 17 { // spot-check rows
		for colI := 0; colI < n; colI += 13 {
			var want float32
			for kk := 0; kk < n; kk++ {
				want += a[row*n+kk] * b[kk*n+colI]
			}
			got := Float32At(bufs[2], row*n+colI)
			if diff := want - got; diff > 1e-2 || diff < -1e-2 {
				t.Fatalf("C[%d,%d] = %v, want %v", row, colI, got, want)
			}
		}
	}
}

func TestGoldenSplitSortSorts(t *testing.T) {
	k, err := ByName("mri-gridding/splitSort")
	if err != nil {
		t.Fatal(err)
	}
	bufs, err := k.RunNative()
	if err != nil {
		t.Fatal(err)
	}
	const n, wg = 2048, 64
	for g := 0; g < n/wg; g++ {
		prev := Int32At(bufs[1], g*wg)
		for i := 1; i < wg; i++ {
			cur := Int32At(bufs[1], g*wg+i)
			if cur < prev {
				t.Fatalf("group %d not sorted at %d: %d < %d", g, i, cur, prev)
			}
			prev = cur
		}
	}
}

// TestJITShapeSingleFrame builds every kernel's module the way the
// accelOS runtime's JIT does (accelpass.Transform, then passes.RunO1)
// and checks the result runs as one frame: the scheduling kernel calls
// no defined function, and no computation function or rt_* runtime
// definition survives. An accelpass or rtlib change that defeats
// inlining fails here instead of silently bringing the per-call frames
// back.
func TestJITShapeSingleFrame(t *testing.T) {
	for _, k := range Kernels() {
		mod, err := clc.Compile(k.Source, k.Name)
		if err != nil {
			t.Fatalf("%s: compile: %v", k.FullName(), err)
		}
		if _, err := accelpass.Transform(mod); err != nil {
			t.Fatalf("%s: transform: %v", k.FullName(), err)
		}
		if err := passes.RunO1(mod); err != nil {
			t.Fatalf("%s: O1: %v", k.FullName(), err)
		}
		for _, b := range mod.Lookup(k.Name).Blocks {
			for _, in := range b.Instrs {
				if f := mod.Lookup(in.Callee); in.Op == ir.OpCall && f != nil && !f.IsDecl() {
					t.Errorf("%s: scheduling kernel still calls @%s", k.FullName(), in.Callee)
				}
			}
		}
		for _, f := range mod.Funcs {
			if !f.IsDecl() && (strings.HasSuffix(f.Name, "__compute") || strings.HasPrefix(f.Name, "rt_")) {
				t.Errorf("%s: definition @%s survived inlining", k.FullName(), f.Name)
			}
		}
	}
}
