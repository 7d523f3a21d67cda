package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/accelos"
	"repro/internal/opencl"
	"repro/internal/service"
)

// buffer is the part of a device buffer a chain uses.
// *accelos.BufferHandle and *service.RemoteBuffer have exactly these
// methods; nativeBuffer adapts a buffer on a native opencl queue.
type buffer interface {
	WriteAsync(off int64, data []byte, waits ...*opencl.Event) (*opencl.Event, error)
	ReadAsync(off int64, out []byte, waits ...*opencl.Event) (*opencl.Event, error)
}

type nativeBuffer struct {
	q *opencl.CommandQueue
	b *opencl.Buffer
}

func (n nativeBuffer) WriteAsync(off int64, data []byte, waits ...*opencl.Event) (*opencl.Event, error) {
	return n.q.EnqueueWrite(n.b, off, data, waits...)
}

func (n nativeBuffer) ReadAsync(off int64, out []byte, waits ...*opencl.Event) (*opencl.Event, error) {
	return n.q.EnqueueRead(n.b, off, out, waits...)
}

// slot is one job bound on one host: a kernel with its arguments set
// and a buffer per array argument, ready to run write → kernel → read
// chains over and over.
type slot struct {
	job    *job
	tenant string
	// layer is the module whose API the chain calls: "accelos"
	// (in-process tenant), "service" (remote tenant) or "opencl"
	// (native reference).
	layer   string
	bufs    []buffer // per argument; nil for scalars
	outs    [][]byte // read-back targets, per argument
	enqueue func(waits ...*opencl.Event) (*opencl.Event, error)
	// gated holds a chain's uploads behind a user event until every
	// command of the chain is enqueued. service.Client drops a finished
	// event from its wait-list map before it completes the event, so an
	// enqueue naming an event that finishes at that moment fails with
	// "wait event was not produced by this client". Under the gate no
	// event of the chain can finish before the chain is fully enqueued.
	gated bool
}

// kernelArgs is the argument-setting surface shared by
// *accelos.KernelHandle, *service.RemoteKernel and *opencl.Kernel,
// with the buffer type erased by bind.
type kernelArgs interface {
	SetArgInt32(i int, v int32) error
}

// bindArgs sets the job's scalar arguments on k and creates one buffer
// per array argument through newBuf, which also binds it to k.
func (s *slot) bindArgs(k kernelArgs, newBuf func(i int, size int64) (buffer, error)) error {
	spec := s.job.spec
	s.bufs = make([]buffer, len(spec.Args))
	s.outs = make([][]byte, len(spec.Args))
	for i, a := range spec.Args {
		if a.Scalar != nil {
			if err := k.SetArgInt32(i, int32(*a.Scalar)); err != nil {
				return err
			}
			continue
		}
		b, err := newBuf(i, int64(len(s.job.inputs[i])))
		if err != nil {
			return fmt.Errorf("%s: buffer %q: %w", s.job.key, a.Name, err)
		}
		s.bufs[i] = b
		s.outs[i] = make([]byte, len(s.job.inputs[i]))
	}
	return nil
}

func appSlot(app *accelos.App, prog *accelos.Program, j *job, tenant string) (*slot, error) {
	kh, err := prog.CreateKernel(j.k.Name)
	if err != nil {
		return nil, err
	}
	s := &slot{job: j, tenant: tenant, layer: "accelos"}
	err = s.bindArgs(kh, func(i int, size int64) (buffer, error) {
		b, err := app.CreateBuffer(size)
		if err != nil {
			return nil, err
		}
		return b, kh.SetArgBuffer(i, b)
	})
	s.enqueue = func(w ...*opencl.Event) (*opencl.Event, error) { return app.EnqueueKernelAsync(kh, j.nd, w...) }
	return s, err
}

func remoteSlot(c *service.Client, prog *service.RemoteProgram, j *job, tenant string) (*slot, error) {
	rk, err := prog.CreateKernel(j.k.Name)
	if err != nil {
		return nil, err
	}
	s := &slot{job: j, tenant: tenant, layer: "service", gated: true}
	err = s.bindArgs(rk, func(i int, size int64) (buffer, error) {
		b, err := c.CreateBuffer(size)
		if err != nil {
			return nil, err
		}
		return b, rk.SetArgBuffer(i, b)
	})
	s.enqueue = func(w ...*opencl.Event) (*opencl.Event, error) { return c.EnqueueKernelAsync(rk, j.nd, w...) }
	return s, err
}

// nativeSlot binds the job on a plain opencl context and out-of-order
// queue: the same chain with no accelOS in the way.
func nativeSlot(ctx *opencl.Context, q *opencl.CommandQueue, j *job) (*slot, error) {
	prog := ctx.CreateProgramWithSource(j.k.Source)
	if err := prog.Build(); err != nil {
		return nil, fmt.Errorf("%s: native build: %w", j.key, err)
	}
	k, err := prog.CreateKernel(j.k.Name)
	if err != nil {
		return nil, err
	}
	s := &slot{job: j, tenant: "native", layer: "opencl"}
	err = s.bindArgs(k, func(i int, size int64) (buffer, error) {
		b, err := ctx.CreateBuffer(size)
		if err != nil {
			return nil, err
		}
		return nativeBuffer{q: q, b: b}, k.SetArgBuffer(i, b)
	})
	s.enqueue = func(w ...*opencl.Event) (*opencl.Event, error) { return q.EnqueueKernel(k, j.nd, w...) }
	return s, err
}

// errMismatch marks a chain whose read-back bytes differ from the
// reference.
var errMismatch = errors.New("read-back differs from the reference")

// call is one host API call a chain made, for the trace.
type call struct {
	name       string
	start, end time.Time
}

// chainRun is one submitted chain: when it started, the calls that
// submitted it, and the events it waits on.
type chainRun struct {
	s      *slot
	t0     time.Time
	calls  []call
	writes []*opencl.Event
	kernel *opencl.Event
	reads  []*opencl.Event
}

// submit enqueues the chain: every array argument uploaded, the kernel
// behind the uploads, every buffer read back behind the kernel. A gated
// slot's uploads start once the whole chain is enqueued.
func (s *slot) submit() (*chainRun, error) {
	r := &chainRun{s: s, t0: time.Now()}
	if !s.gated {
		return r, r.enqueue(nil)
	}
	gate := opencl.NewUserEvent()
	err := r.enqueue([]*opencl.Event{gate})
	t := time.Now()
	gate.Complete()
	r.mark("release", t)
	return r, err
}

// mark records a host API call of the chain that began at start.
func (r *chainRun) mark(name string, start time.Time) {
	r.calls = append(r.calls, call{name: r.s.layer + "." + name, start: start, end: time.Now()})
}

// enqueue issues the chain's commands, its uploads behind gates.
func (r *chainRun) enqueue(gates []*opencl.Event) error {
	s := r.s
	for i, b := range s.bufs {
		if b == nil {
			continue
		}
		t := time.Now()
		ev, err := b.WriteAsync(0, s.job.inputs[i], gates...)
		if err != nil {
			return fmt.Errorf("%s: write: %w", s.job.key, err)
		}
		r.mark("write", t)
		r.writes = append(r.writes, ev)
	}
	t := time.Now()
	kev, err := s.enqueue(r.writes...)
	if err != nil {
		return fmt.Errorf("%s: enqueue: %w", s.job.key, err)
	}
	r.mark("enqueue", t)
	r.kernel = kev
	for i, b := range s.bufs {
		if b == nil {
			continue
		}
		t := time.Now()
		ev, err := b.ReadAsync(0, s.outs[i], kev)
		if err != nil {
			return fmt.Errorf("%s: read: %w", s.job.key, err)
		}
		r.mark("read", t)
		r.reads = append(r.reads, ev)
	}
	return nil
}

// callsEnd is when the last submitting call returned.
func (r *chainRun) callsEnd() time.Time {
	if len(r.calls) == 0 {
		return r.t0
	}
	return r.calls[len(r.calls)-1].end
}

// wait blocks until every read-back finished, or ctx ends.
func (r *chainRun) wait(ctx context.Context) error {
	for _, ev := range r.reads {
		if err := ev.WaitContext(ctx); err != nil {
			return fmt.Errorf("%s: %w", r.s.job.key, err)
		}
	}
	return nil
}

// verify compares every read-back buffer with the job's reference.
func (r *chainRun) verify() error {
	s := r.s
	for i, want := range s.job.want {
		if s.outs[i] == nil {
			continue
		}
		if !bytes.Equal(s.outs[i], want) {
			return fmt.Errorf("%s: buffer %d (%s): %w",
				s.job.key, i, s.job.spec.Args[i].Name, errMismatch)
		}
	}
	return nil
}

// runChain runs one closed-loop chain and returns when it ended; a
// failed, mismatched or timed-out chain returns an error.
func (s *slot) runChain(ctx context.Context) (*chainRun, time.Time, error) {
	r, err := s.submit()
	if err == nil {
		err = r.wait(ctx)
	}
	end := time.Now()
	if err == nil {
		err = r.verify()
	}
	return r, end, err
}
