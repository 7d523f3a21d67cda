package main

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/accelos"
	"repro/internal/opencl"
	"repro/internal/telemetry"
)

// roundLen is the length of one measurement round. A run is a sequence
// of rounds, each a solo block, an open-loop block (remote-tiny) and a
// shared block in the workload's proportions. Interleaving the phases
// this finely means drift in the host's speed reaches solo and shared
// samples alike, so the slowdowns computed from them cancel it.
const roundLen = 2500 * time.Millisecond

// cycler walks seeded permutations of n items and keeps its place from
// one block to the next, so every item is visited equally often.
type cycler struct {
	rng  *rand.Rand
	n    int
	perm []int
	pos  int
}

func newCycler(seed int64, n int) *cycler {
	return &cycler{rng: rand.New(rand.NewSource(seed)), n: n}
}

func (c *cycler) next() int {
	if c.pos == len(c.perm) {
		c.perm = c.rng.Perm(c.n)
		c.pos = 0
	}
	c.pos++
	return c.perm[c.pos-1]
}

// runner executes a workload's rounds on one environment.
type runner struct {
	e   *env
	tr  *telemetry.Tracer // nil in timed runs
	obs observations
	t   *tally
	ctx context.Context

	traceN      atomic.Int64
	soloOrder   *cycler
	tenantOrder []*cycler
	openRng     *rand.Rand
	openPools   []chan *slot
	soloN       int

	soloAccel, soloNative samples   // per job key, ms
	soloTraced, soloPlain samples   // traced runs: traced vs untraced solo chains
	shared                samples   // per "tenant|key", ms
	genLag                []float64 // ms
	soloPlans             []accelos.PlanSample

	// Per round: the latencies of the chains chain_p50_ms and
	// chain_p99_ms describe (workload.latency), their quantiles, and
	// the shared block's throughput. The reported figures are medians
	// over rounds, so a burst of host noise in one round moves them
	// little.
	lat                []float64
	roundP50, roundP99 []float64
	roundChainsPerS    []float64
}

func newRunner(e *env, seed int64, ctx context.Context, tr *telemetry.Tracer) *runner {
	r := &runner{
		e: e, tr: tr, t: newTally(), ctx: ctx,
		soloOrder: newCycler(seed, len(e.keys)),
		openRng:   rand.New(rand.NewSource(seed + 1)),
		soloAccel: samples{}, soloNative: samples{}, soloTraced: samples{}, soloPlain: samples{},
		shared: samples{},
	}
	for i, t := range e.tenants {
		r.tenantOrder = append(r.tenantOrder, newCycler(seed+2+int64(i), len(t.slots)))
		pool := make(chan *slot, len(t.open))
		for _, s := range t.open {
			pool <- s
		}
		r.openPools = append(r.openPools, pool)
	}
	return r
}

// traced reports whether to trace the next chain: in traced runs,
// every workload.traceEvery-th one.
func (r *runner) traced() bool {
	return r.tr != nil && r.traceN.Add(1)%int64(r.e.w.traceEvery) == 0
}

// chain runs one closed-loop chain, tallies it and, in traced runs,
// records its spans and event profile. The returned latency includes
// the tracing cost, so traced and untraced solo chains compare.
func (r *runner) chain(phase string, s *slot, traced bool) (float64, error) {
	run, end, err := s.runChain(r.ctx)
	if traced && err == nil {
		traceChain(r.tr, run, end)
		observe(&r.obs, run, end)
		end = time.Now()
	}
	r.t.add(phase, s, err)
	return ms(end.Sub(run.t0)), err
}

// warmup runs every slot once so caches fill and lazy set-up finishes
// before anything is timed.
func (r *runner) warmup() {
	for _, t := range r.e.tenants {
		for _, s := range append(append([]*slot(nil), t.slots...), t.open...) {
			_, _ = r.chain("warmup", s, false)
		}
	}
	for _, k := range r.e.keys {
		_, _ = r.chain("warmup", r.e.native[k], false)
	}
}

// measure runs whole rounds until d has passed.
func (r *runner) measure(d time.Duration) {
	w := r.e.w
	block := func(share float64) time.Duration { return time.Duration(share * float64(roundLen)) }
	for end := time.Now().Add(d); time.Now().Before(end); {
		r.lat = r.lat[:0]
		r.solo(block(w.solo))
		if w.open > 0 {
			r.openLoop(block(w.open), w.openRate)
		}
		r.sharedBlock(block(w.shared))
		r.roundP50 = append(r.roundP50, quantile(r.lat, 0.5))
		r.roundP99 = append(r.roundP99, quantile(r.lat, 0.99))
	}
	if r.e.rt != nil {
		r.soloPlans = r.e.rt.PlanHistory()
	}
}

// failedLatency stands for a failed chain in a latency distribution:
// a chain that failed missed every latency limit.
var failedLatency = inf()

// solo runs the distinct jobs alone, in seeded order, each accelOS
// (or remote) chain next to the same chain run natively; which of the
// two goes first alternates. Traced runs also alternate tracing the
// accelOS chain on and off, which gives bench.trace_overhead.
func (r *runner) solo(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); r.soloN++ {
		key := r.e.keys[r.soloOrder.next()]
		traced := (r.soloN/2)%2 == 0 && r.traced()
		accel := func() {
			lat, err := r.chain("solo", r.e.owner[key], traced)
			if err != nil {
				lat = failedLatency
			}
			r.soloAccel.add(key, lat)
			if r.e.w.latency == "solo" {
				r.lat = append(r.lat, lat)
			}
			if err == nil && r.tr != nil {
				if traced {
					r.soloTraced.add(key, lat)
				} else {
					r.soloPlain.add(key, lat)
				}
			}
		}
		native := func() {
			if lat, err := r.chain("solo", r.e.native[key], r.traced()); err == nil {
				r.soloNative.add(key, lat)
			}
		}
		if r.soloN%2 == 0 {
			accel()
			native()
		} else {
			native()
			accel()
		}
	}
}

// sharedBlock runs every tenant in its own closed loop at once, each
// over its jobs in its own seeded order.
func (r *runner) sharedBlock(d time.Duration) {
	start := time.Now()
	end := start.Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	last := start
	chains := 0
	for ti, t := range r.e.tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := samples{}
			var lats []float64
			for time.Now().Before(end) {
				s := t.slots[r.tenantOrder[ti].next()]
				lat, err := r.chain("shared", s, r.traced())
				if err != nil {
					lat = failedLatency
				}
				local.add(t.name+"|"+s.job.key, lat)
				lats = append(lats, lat)
			}
			done := time.Now()
			mu.Lock()
			for k, v := range local {
				r.shared[k] = append(r.shared[k], v...)
			}
			if t.name == r.e.w.latency {
				r.lat = append(r.lat, lats...)
			}
			chains += len(lats)
			if done.After(last) {
				last = done
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	r.roundChainsPerS = append(r.roundChainsPerS, float64(chains)/last.Sub(start).Seconds())
}

// openLoop sends chains at seeded Poisson arrival times, alternating
// between the tenants, without waiting for earlier chains, then waits
// for the block's chains to finish. Each chain is timed from its due
// time, so a stall also charges the chains it delays; the generator's
// own lateness is recorded as well.
func (r *runner) openLoop(d time.Duration, rate float64) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	due := start
	for n := 0; ; n++ {
		due = due.Add(time.Duration(r.openRng.ExpFloat64() / rate * float64(time.Second)))
		if due.Sub(start) >= d {
			break
		}
		waitUntil(due)
		pool := r.openPools[n%len(r.openPools)]
		var s *slot
		select {
		case s = <-pool:
		case <-time.After(chainTimeout):
			r.t.add("open", r.e.tenants[n%len(r.openPools)].open[0], errors.New("no chain slot came free within the timeout"))
			continue
		}
		lag := ms(time.Since(due))
		run, err := s.submit()
		if err != nil {
			r.t.add("open", s, err)
			pool <- s
			continue
		}
		wg.Add(1)
		chainDue := due
		traced := r.traced()
		opencl.WhenAll(run.reads, func(err error) {
			defer wg.Done()
			end := time.Now()
			if err == nil {
				err = run.verify()
			}
			if err == nil && traced {
				traceChain(r.tr, run, end)
				observe(&r.obs, run, end)
			}
			r.t.add("open", s, err)
			lat := ms(end.Sub(chainDue))
			if err != nil {
				lat = failedLatency
			}
			mu.Lock()
			r.lat = append(r.lat, lat)
			r.genLag = append(r.genLag, lag)
			mu.Unlock()
			pool <- s
		})
	}
	waited := make(chan struct{})
	go func() {
		wg.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(chainTimeout):
		r.t.add("open", r.e.tenants[0].open[0], errors.New("open-loop chains still running after the timeout"))
	}
}

// waitUntil returns at t. It sleeps in the kernel rather than on a
// runtime timer: the runtime rounds waits shorter than a millisecond up
// to one when the process is otherwise idle, which would send most
// open-loop chains late.
func waitUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
	}
}
