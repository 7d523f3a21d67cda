package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/opencl"
	"repro/internal/parboil"
)

// job is one kernel's verification launch: its inputs as the host
// writes them before every chain and the bytes every read-back must
// equal.
type job struct {
	key    string // "benchmark/kernel": solo and shared medians are keyed by it
	k      *parboil.Kernel
	spec   parboil.LaunchSpec
	nd     opencl.NDRange
	inputs [][]byte // per argument; nil for scalars
	want   [][]byte // per argument; nil for scalars
}

func newJob(k *parboil.Kernel) *job {
	spec := k.Setup()
	j := &job{
		key:    k.FullName(),
		k:      k,
		spec:   spec,
		nd:     opencl.NDRange{Dims: spec.Dims, Global: spec.Global, Local: spec.Local},
		inputs: make([][]byte, len(spec.Args)),
	}
	for i, a := range spec.Args {
		if a.Scalar == nil {
			j.inputs[i] = parboil.EncodeArg(a)
		}
	}
	return j
}

// parboilJob prepares a Parboil kernel's launch; its reference output
// is the native interpreter run of the same launch.
func parboilJob(k *parboil.Kernel) (*job, error) {
	j := newJob(k)
	want, err := k.RunNative()
	if err != nil {
		return nil, fmt.Errorf("%s: native reference: %w", k.FullName(), err)
	}
	j.want = want
	return j, nil
}

// bumpItems is the tiny chain's NDRange: 256 work-items over a 1 KiB
// buffer.
const bumpItems = 256

const bumpSrc = `
kernel void bump(global int* out, int n)
{
    int i = (int)get_global_id(0);
    if (i < n) out[i] = out[i] + 1;
}
`

// bumpJob prepares one tiny chain over seeded buffer contents. Its
// reference is the +1 pattern, computed here rather than by running
// the kernel.
func bumpJob(rng *rand.Rand) *job {
	vals := make([]int32, bumpItems)
	for i := range vals {
		vals[i] = rng.Int31n(1<<24) - 1<<23
	}
	k := &parboil.Kernel{
		Benchmark: "tiny",
		Name:      "bump",
		Source:    bumpSrc,
		Setup: func() parboil.LaunchSpec {
			return parboil.LaunchSpec{
				Dims:   1,
				Global: [3]int64{bumpItems, 1, 1},
				Local:  [3]int64{64, 1, 1},
				Args: []parboil.Arg{
					{Name: "out", I32: vals, Out: true},
					parboil.ScalarArg("n", bumpItems),
				},
			}
		},
	}
	j := newJob(k)
	want := make([]byte, 4*bumpItems)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(want[4*i:], uint32(v+1))
	}
	j.want = [][]byte{want, nil}
	return j
}

// heavyKernels are the five longest Parboil verification launches
// (17–41 ms per chain on a 2 vCPU host); heavy-light gives them to one
// tenant and the other twenty to the other.
var heavyKernels = map[string]bool{
	"cutcp/lattice6overlap":     true,
	"mri-gridding/gridding_GPU": true,
	"mri-q/ComputeQ_GPU":        true,
	"sgemm/mysgemmNT":           true,
	"tpacf/gen_hists":           true,
}

// tenantDef is one tenant of a workload: the jobs its closed loops
// cycle through, and for the open loop its pool of chain slots.
type tenantDef struct {
	name     string
	jobs     []*job
	openJobs []*job
}

// workload is one named load shape. Every workload runs a solo phase
// (each distinct kernel alone, interleaved with the same chain run
// natively) and a shared phase (all tenants in closed loops at once);
// remote-tiny adds an open-loop phase between them.
type workload struct {
	name   string
	remote bool
	// Shares of --seconds given to each phase.
	solo, open, shared float64
	// openRate is the open-loop arrival rate in chains/s.
	openRate float64
	// latency names the chains chain_p50_ms/chain_p99_ms describe:
	// "solo", "open", or a tenant name (that tenant's shared-phase
	// chains).
	latency string
	// traceEvery: traced runs trace one chain in traceEvery, so the
	// spans of a whole run fit the tracer's buffer.
	traceEvery int
	// tenants builds the tenant set; it runs inside the timed set-up
	// because it computes the native references.
	tenants func(rng *rand.Rand) ([]tenantDef, error)
}

// openSlots is how many independent buffers each remote connection
// cycles through in the open loop, so chains in flight at once never
// share a buffer.
const openSlots = 16

var workloads = []*workload{
	{
		name: "parboil-overhead", solo: 0.65, shared: 0.35, latency: "solo", traceEvery: 1,
		tenants: func(*rand.Rand) ([]tenantDef, error) {
			var jobs []*job
			for _, k := range parboil.Kernels() {
				j, err := parboilJob(k)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, j)
			}
			return []tenantDef{{name: "t0", jobs: jobs}, {name: "t1", jobs: jobs}}, nil
		},
	},
	{
		name: "heavy-light", solo: 0.45, shared: 0.55, latency: "light", traceEvery: 1,
		tenants: func(*rand.Rand) ([]tenantDef, error) {
			heavy := tenantDef{name: "heavy"}
			light := tenantDef{name: "light"}
			for _, k := range parboil.Kernels() {
				j, err := parboilJob(k)
				if err != nil {
					return nil, err
				}
				if heavyKernels[k.FullName()] {
					heavy.jobs = append(heavy.jobs, j)
				} else {
					light.jobs = append(light.jobs, j)
				}
			}
			return []tenantDef{heavy, light}, nil
		},
	},
	{
		name: "remote-tiny", remote: true, solo: 0.2, open: 0.35, shared: 0.45,
		openRate: 300, latency: "open", traceEvery: 4,
		tenants: func(rng *rand.Rand) ([]tenantDef, error) {
			ts := []tenantDef{{name: "c0"}, {name: "c1"}}
			for i := range ts {
				ts[i].jobs = []*job{bumpJob(rng)}
				for s := 0; s < openSlots; s++ {
					ts[i].openJobs = append(ts[i].openJobs, bumpJob(rng))
				}
			}
			return ts, nil
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
