package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/accelos"
	"repro/internal/opencl"
	"repro/internal/service"
)

// chainTimeout bounds one chain; a chain still unfinished after it
// counts as failed.
const chainTimeout = 30 * time.Second

// options configure one run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	acceld  string // daemon binary (remote workloads)
	dir     string // run artefacts: sockets, shm segments, traces
	setups  int    // set-ups per run; setup_s is their median
	// corrupt, when set, flips a byte of that job's reference after
	// set-up, so every chain of it must be counted as failed.
	corrupt string
	cat     catalog
}

// tenant is one connected tenant: an App in-process or a Client over
// the socket, with a slot per job and, for the open loop, a pool.
type tenant struct {
	name   string
	app    *accelos.App
	client *service.Client
	slots  []*slot
	open   []*slot
}

// env is everything one set-up builds.
type env struct {
	w       *workload
	rt      *accelos.Runtime
	d       *daemon
	tenants []*tenant
	// keys lists the distinct jobs in first-seen order; owner and
	// native give the tenant slot that runs each solo and its native
	// reference slot.
	keys   []string
	owner  map[string]*slot
	native map[string]*slot

	createProgramMS []float64
	dialMS          []float64
}

// setup builds a workload's environment: runtime (or daemon) start,
// tenant connections, every program JIT, buffer creation, the native
// references and the native reference queue.
func setup(o options, w *workload) (e *env, err error) {
	e = &env{w: w, owner: map[string]*slot{}, native: map[string]*slot{}}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	defs, err := w.tenants(rand.New(rand.NewSource(o.seed)))
	if err != nil {
		return e, err
	}
	if w.remote {
		if e.d, err = startDaemon(o.acceld, o.dir); err != nil {
			return e, err
		}
	} else {
		e.rt = accelos.NewRuntime(opencl.GetPlatforms()[0])
	}
	for _, def := range defs {
		t := &tenant{name: def.name}
		e.tenants = append(e.tenants, t)
		if err := e.connect(t, def); err != nil {
			return e, fmt.Errorf("tenant %s: %w", def.name, err)
		}
	}
	nctx := opencl.GetPlatforms()[0].CreateContext()
	q := nctx.CreateOutOfOrderQueue()
	for _, t := range e.tenants {
		for _, s := range t.slots {
			if e.owner[s.job.key] != nil {
				continue
			}
			e.keys = append(e.keys, s.job.key)
			e.owner[s.job.key] = s
			if e.native[s.job.key], err = nativeSlot(nctx, q, s.job); err != nil {
				return e, err
			}
		}
	}
	if o.corrupt != "" {
		s := e.owner[o.corrupt]
		if s == nil {
			return e, fmt.Errorf("no job %q to corrupt", o.corrupt)
		}
		for i, want := range s.job.want {
			if want != nil {
				bad := append([]byte(nil), want...)
				bad[0] ^= 0xff
				s.job.want[i] = bad
				break
			}
		}
	}
	return e, nil
}

// connect attaches one tenant and binds its jobs: one program per
// distinct source, one slot per job.
func (e *env) connect(t *tenant, def tenantDef) error {
	progs := map[string]func(j *job) (*slot, error){}
	bind := func(j *job) (*slot, error) {
		if mk := progs[j.k.Source]; mk != nil {
			return mk(j)
		}
		start := time.Now()
		var mk func(j *job) (*slot, error)
		if t.client != nil {
			p, err := t.client.CreateProgram(j.k.Source)
			if err != nil {
				return nil, err
			}
			mk = func(j *job) (*slot, error) { return remoteSlot(t.client, p, j, t.name) }
		} else {
			p, err := t.app.CreateProgram(j.k.Source)
			if err != nil {
				return nil, err
			}
			mk = func(j *job) (*slot, error) { return appSlot(t.app, p, j, t.name) }
		}
		e.createProgramMS = append(e.createProgramMS, ms(time.Since(start)))
		progs[j.k.Source] = mk
		return mk(j)
	}
	if e.d != nil {
		start := time.Now()
		c, err := service.Dial(e.d.sock, t.name, "")
		if err != nil {
			return err
		}
		e.dialMS = append(e.dialMS, ms(time.Since(start)))
		t.client = c
	} else {
		t.app = e.rt.Connect(t.name)
	}
	for _, j := range def.jobs {
		s, err := bind(j)
		if err != nil {
			return err
		}
		t.slots = append(t.slots, s)
	}
	for _, j := range def.openJobs {
		s, err := bind(j)
		if err != nil {
			return err
		}
		t.open = append(t.open, s)
	}
	return nil
}

// close tears the environment down and returns the daemon's metrics
// dump (remote workloads).
func (e *env) close() (string, error) {
	for _, t := range e.tenants {
		if t.app != nil {
			t.app.Close()
		}
		if t.client != nil {
			t.client.Close()
		}
	}
	if e.rt != nil {
		e.rt.Shutdown()
	}
	if e.d != nil {
		return e.d.stop()
	}
	return "", nil
}

// tally counts chains attempted and failed, per phase.
type tally struct {
	mu        sync.Mutex
	attempted map[string]int
	failed    map[string]int
	byLayer   map[string]int // chains attempted per API layer
	// mismatched counts chains whose read-back bytes differed from the
	// reference, as opposed to chains that failed with an error.
	mismatched int
	firstErr   error
}

func newTally() *tally {
	return &tally{attempted: map[string]int{}, failed: map[string]int{}, byLayer: map[string]int{}}
}

func (t *tally) add(phase string, s *slot, err error) {
	t.mu.Lock()
	t.attempted[phase]++
	t.byLayer[s.layer]++
	if err != nil {
		t.failed[phase]++
		if errors.Is(err, errMismatch) {
			t.mismatched++
		}
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("%s phase: %w", phase, err)
		}
	}
	t.mu.Unlock()
}

func (t *tally) total() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for p, n := range t.attempted {
		attempted += n
		failed += t.failed[p]
	}
	return
}

// observations are the per-chain readings a traced run aggregates
// into per-layer metrics.
type observations struct {
	mu sync.Mutex
	v  map[string][]float64
}

func (o *observations) add(name string, x float64) {
	o.mu.Lock()
	if o.v == nil {
		o.v = map[string][]float64{}
	}
	o.v[name] = append(o.v[name], x)
	o.mu.Unlock()
}

func (o *observations) median(name string) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return median(o.v[name])
}

// observe records a finished chain's event profile (traced runs only).
func observe(obs *observations, r *chainRun, end time.Time) {
	layer := r.s.layer
	obs.add(layer+".enqueue_us", us(r.callsEnd().Sub(r.t0)))
	obs.add(layer+".wait_ms", ms(end.Sub(r.callsEnd())))
	if p, err := r.kernel.ProfilingInfo(); err == nil {
		obs.add(layer+".queue_delay_ms", ms(p.QueueDelay()))
		obs.add(layer+".launch_delay_ms", ms(p.LaunchDelay()))
		obs.add(layer+".run_ms", ms(p.Duration()))
	}
	sum := func(evs []*opencl.Event) (d time.Duration) {
		for _, ev := range evs {
			if p, err := ev.ProfilingInfo(); err == nil {
				d += p.Duration()
			}
		}
		return d
	}
	obs.add(layer+".write_ms", ms(sum(r.writes)))
	obs.add(layer+".read_ms", ms(sum(r.reads)))
}

// daemonDir is where remote workloads put the daemon's socket and
// segments: relative to the working directory when that is shorter,
// to keep the socket address short.
func daemonDir(dir string) string {
	dir = filepath.Join(dir, "run")
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, dir); err == nil && len(rel) < len(dir) {
			return rel
		}
	}
	return dir
}
