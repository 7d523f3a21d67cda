// Package accelos implements the host runtime of the paper: the
// resource-sharing algorithm (§3), the Kernel Scheduler, the Application
// Monitor FSM, the ProxyCL interposition layer and device memory
// management (§5). The JIT half of accelOS lives in internal/accelpass.
package accelos

import (
	"repro/internal/device"
	"repro/internal/sim"
)

const inf = int64(1) << 62

// PlanShares runs the paper's resource-sharing algorithm (§3) with
// equal shares: PlanWeighted with every kernel weighing 1.
func PlanShares(dev *device.Platform, execs []*sim.KernelExec, naive bool) []*sim.Launch {
	weights := make([]float64, len(execs))
	for i := range weights {
		weights[i] = 1
	}
	return PlanWeighted(dev, execs, weights, naive)
}

// PlanSingle plans an isolated kernel execution under accelOS (used for
// the overhead study of §8.5): with K=1 the allocation is the occupancy
// limit, so the transformed kernel spans the whole device.
func PlanSingle(dev *device.Platform, ke *sim.KernelExec, naive bool) *sim.Launch {
	return PlanShares(dev, []*sim.KernelExec{ke}, naive)[0]
}

// PlanWeighted runs the paper's resource-sharing algorithm (§3) for K
// concurrent kernel execution requests, generalized to non-equal
// sharing ratios (§2.2: "this can easily be achieved by changing the
// sharing ratio", e.g. favouring a longer-running or more important
// application). weights[i] is kernel i's share of the device. For each
// kernel i with work-group size w_i, local memory m_i, register demand
// r_i and share f_i = weights[i]/Σweights it computes
//
//	x_i = f_i·T/w_i, y_i = f_i·L/m_i, z_i = f_i·R/r_i
//
// (with equal weights, the paper's x_i = T/(K·w_i), y_i = L/(K·m_i),
// z_i = R/(K·r_i)), takes min(x_i, y_i, z_i) physical work-groups, then
// greedily grows the allocations until a device resource saturates
// (the Diophantine solutions are conservative). Allocations are
// additionally capped by the kernel's own virtual group count and by
// its occupancy limit — extra physical groups past either cap could
// never run or would find the queue empty.
//
// naive selects the untuned variant (one virtual group per scheduling
// operation); the optimized variant uses the adaptive chunk recorded in
// each KernelExec.
func PlanWeighted(dev *device.Platform, execs []*sim.KernelExec, weights []float64, naive bool) []*sim.Launch {
	if len(weights) != len(execs) {
		panic("accelos: PlanWeighted needs one weight per kernel")
	}
	if len(execs) == 0 {
		// No requests: nothing to plan. Returning before any device
		// access keeps PlanShares(nil, nil, naive) safe — callers probe
		// an empty schedule without holding a device.
		return nil
	}
	var sum float64
	for _, w := range weights {
		if w <= 0 {
			panic("accelos: sharing weights must be positive")
		}
		sum += w
	}
	launches := make([]*sim.Launch, len(execs))
	caps := make([]int64, len(execs))
	fps := make([]device.Footprint, len(execs))
	for i, ke := range execs {
		fp := ke.TransFootprint()
		fps[i] = fp
		frac := weights[i] / sum
		w := dev.RoundWarp(fp.Threads)
		x := int64(frac * float64(dev.TotalThreads()) / float64(w))
		y := inf
		if fp.LocalBytes > 0 {
			y = int64(frac * float64(dev.TotalLocalMem()) / float64(fp.LocalBytes))
		}
		z := inf
		if fp.Regs > 0 {
			z = int64(frac * float64(dev.TotalRegs()) / float64(fp.Regs))
		}
		n := min3(x, y, z)
		if n < 1 {
			n = 1
		}
		caps[i] = ke.NumWGs
		if occ := dev.MaxConcurrentWGs(fp); occ < caps[i] {
			caps[i] = occ
		}
		if caps[i] < 1 {
			caps[i] = 1
		}
		if n > caps[i] {
			n = caps[i]
		}
		chunk := ke.Chunk
		if naive || chunk < 1 {
			chunk = 1
		}
		// Keep several dequeues per worker so chunk-granularity tails
		// stay small: a chunk near the per-worker share would serialize
		// small grids.
		if cap := ke.NumWGs / (n * 8); chunk > cap {
			chunk = cap
			if chunk < 1 {
				chunk = 1
			}
		}
		launches[i] = &sim.Launch{K: ke, PhysWGs: n, Chunk: chunk, FP: fp}
	}
	// Greedy growth until saturation.
	fits := func() bool {
		var th, lm, rg int64
		for i, l := range launches {
			th += l.PhysWGs * dev.RoundWarp(fps[i].Threads)
			lm += l.PhysWGs * fps[i].LocalBytes
			rg += l.PhysWGs * fps[i].Regs
		}
		return th <= dev.TotalThreads() && lm <= dev.TotalLocalMem() && rg <= dev.TotalRegs()
	}
	// Grow the kernel furthest below its weighted thread share first —
	// with equal weights, the smallest thread share, keeping the
	// equal-share objective (min_i min_j |x_i·w_i − x_j·w_j|) while
	// filling leftover capacity.
	for {
		best := -1
		bestGap := 0.0
		for i, l := range launches {
			if l.PhysWGs >= caps[i] {
				continue
			}
			want := weights[i] / sum * float64(dev.TotalThreads())
			got := float64(l.PhysWGs * dev.RoundWarp(fps[i].Threads))
			gap := want - got
			if best < 0 || gap > bestGap {
				best, bestGap = i, gap
			}
		}
		if best < 0 {
			break
		}
		launches[best].PhysWGs++
		if !fits() {
			launches[best].PhysWGs--
			caps[best] = launches[best].PhysWGs // saturated: stop growing it
		}
	}
	return launches
}

func min3(a, b, c int64) int64 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}

// PlanTenantShares extends PlanWeighted with per-tenant weights on one
// device: kernels are grouped by tenant, the device is divided between
// tenants in proportion to weights (absent tenants weigh 1), and each
// tenant's slice is split equally among its kernels. tenants[i] names
// kernel i's tenant. This is the per-device building block of the
// cluster layer's aggregate fair sharing (internal/cluster equalizes
// the same quantity across a pool).
func PlanTenantShares(dev *device.Platform, execs []*sim.KernelExec, tenants []string, weights map[string]float64, naive bool) []*sim.Launch {
	if len(tenants) != len(execs) {
		panic("accelos: PlanTenantShares needs one tenant per kernel")
	}
	if len(execs) == 0 {
		return nil
	}
	counts := make(map[string]int, len(tenants))
	for _, t := range tenants {
		counts[t]++
	}
	per := make([]float64, len(execs))
	for i, t := range tenants {
		w := 1.0
		if v, ok := weights[t]; ok {
			if v <= 0 {
				panic("accelos: tenant weights must be positive")
			}
			w = v
		}
		per[i] = w / float64(counts[t])
	}
	return PlanWeighted(dev, execs, per, naive)
}
