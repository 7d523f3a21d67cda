package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/accelos"
	"repro/internal/accelpass"
	"repro/internal/clc"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/opencl"
	"repro/internal/passes"
	"repro/internal/rtlib"
	"repro/internal/telemetry"
)

// layerCost is one kernel's JIT pipeline and launch measured outside
// the runtime, by calling each layer's public entry point directly.
type layerCost struct {
	compile, transform, o1    time.Duration
	instrsAdded, instrsO1     int
	nativeLaunch, transLaunch time.Duration
}

// layerReps is how many times each stage is timed; the median is kept.
const layerReps = 5

func countInstrs(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

func timeIt(f func() error) (time.Duration, error) {
	t := time.Now()
	err := f()
	return time.Since(t), err
}

func medianDur(ds []time.Duration) time.Duration {
	fs := make([]float64, len(ds))
	for i, d := range ds {
		fs[i] = float64(d)
	}
	return time.Duration(median(fs))
}

// measureLayers runs the JIT pipeline the runtime runs for a program —
// clc.Compile, accelpass.Transform, passes.RunO1 on a clone — then
// times the native launch (parboil PrepareNative on the VM) and the
// transformed launch (opencl.NewLaunchHandle on the O1 module at phys
// physical work-groups). Every stage is also recorded as a setup span.
func measureLayers(tr *telemetry.Tracer, j *job, phys int64) (layerCost, error) {
	var c layerCost
	k := j.k
	span := func(cat, name string, d time.Duration) {
		end := time.Now()
		tr.Complete(0, "setup", j.key, cat, name, end.Add(-d), end)
	}

	var orig *ir.Module
	var ds []time.Duration
	for i := 0; i < layerReps; i++ {
		d, err := timeIt(func() (err error) {
			orig, err = clc.Compile(k.Source, k.Name)
			return err
		})
		if err != nil {
			return c, fmt.Errorf("%s: compile: %w", j.key, err)
		}
		ds = append(ds, d)
	}
	c.compile = medianDur(ds)
	span("clc", "clc.compile", c.compile)

	var res *accelpass.Result
	ds = ds[:0]
	for i := 0; i < layerReps; i++ {
		m := ir.CloneModule(orig)
		d, err := timeIt(func() (err error) {
			res, err = accelpass.Transform(m)
			return err
		})
		if err != nil {
			return c, fmt.Errorf("%s: transform: %w", j.key, err)
		}
		ds = append(ds, d)
	}
	c.transform = medianDur(ds)
	span("accelpass", "accelpass.transform", c.transform)
	c.instrsAdded = countInstrs(res.Module) - countInstrs(orig)
	info := res.Kernels[k.Name]
	if info == nil {
		return c, fmt.Errorf("%s: transformation lost the kernel", j.key)
	}

	var opt *ir.Module
	ds = ds[:0]
	for i := 0; i < layerReps; i++ {
		opt = ir.CloneModule(res.Module)
		d, err := timeIt(func() error { return passes.RunO1(opt) })
		if err != nil {
			return c, fmt.Errorf("%s: O1: %w", j.key, err)
		}
		ds = append(ds, d)
	}
	c.o1 = medianDur(ds)
	span("passes", "passes.o1", c.o1)
	c.instrsO1 = countInstrs(opt)

	pl, err := k.PrepareNative(interp.EngineVM)
	if err != nil {
		return c, fmt.Errorf("%s: prepare native: %w", j.key, err)
	}
	if c.nativeLaunch, err = timeRuns(pl.Run, nil); err != nil {
		return c, fmt.Errorf("%s: native launch: %w", j.key, err)
	}

	// The transformed launch, bound the way the runtime binds it: the
	// kernel object comes from the original module (its signature),
	// the code from the O1 transformed module with warp tables.
	interp.ShareProgram(interp.CompileModuleOpts(opt, interp.CompileOpts{WarpWidth: interp.DefaultWarpWidth}))
	plat := opencl.GetPlatforms()[0]
	ctx := plat.CreateContext()
	cl, err := (&opencl.Program{Ctx: ctx, Module: orig}).CreateKernel(k.Name)
	if err != nil {
		return c, err
	}
	bufs := make([]*opencl.Buffer, len(j.spec.Args))
	for i, a := range j.spec.Args {
		if a.Scalar != nil {
			err = cl.SetArgInt32(i, int32(*a.Scalar))
		} else if bufs[i], err = ctx.CreateBuffer(int64(len(j.inputs[i]))); err == nil {
			err = cl.SetArgBuffer(i, bufs[i])
		}
		if err != nil {
			return c, err
		}
	}
	defer func() {
		for _, b := range bufs {
			if b != nil {
				b.Release()
			}
		}
	}()
	reset := func() {
		for i, b := range bufs {
			if b != nil {
				copy(b.Bytes, j.inputs[i])
			}
		}
	}
	rtWords := rtlib.BuildRT(j.nd.Dims, j.nd.NumGroups(), j.nd.Local, info.Chunk)
	launch := func() error {
		h, err := opencl.NewLaunchHandle(plat, opt, cl, j.nd, rtWords, phys, rtWords[rtlib.RTChunk])
		if err != nil {
			return err
		}
		return h.Run()
	}
	if c.transLaunch, err = timeRuns(launch, reset); err != nil {
		return c, fmt.Errorf("%s: transformed launch: %w", j.key, err)
	}
	for i, b := range bufs {
		if b != nil && !bytes.Equal(b.Bytes, j.want[i]) {
			return c, fmt.Errorf("%s: transformed launch: buffer %d differs from the reference", j.key, i)
		}
	}
	return c, nil
}

// timeRuns runs f once to warm caches, then layerReps timed times, and
// returns the median. before, when set, runs untimed ahead of each run.
func timeRuns(f func() error, before func()) (time.Duration, error) {
	var ds []time.Duration
	for i := 0; i <= layerReps; i++ {
		if before != nil {
			before()
		}
		d, err := timeIt(f)
		if err != nil {
			return 0, err
		}
		if i > 0 {
			ds = append(ds, d)
		}
	}
	return medianDur(ds), nil
}

// soloPhys is the median PhysWGs the runtime pushed to each kernel
// during the solo phase, read from Runtime.PlanHistory.
func soloPhys(hist []accelos.PlanSample) map[string]int64 {
	by := make(map[string][]float64)
	for _, p := range hist {
		by[p.Kernel] = append(by[p.Kernel], float64(p.PhysWGs))
	}
	out := make(map[string]int64, len(by))
	for k, v := range by {
		out[k] = int64(median(v) + 0.5)
	}
	return out
}
