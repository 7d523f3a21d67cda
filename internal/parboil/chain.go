package parboil

import (
	"bytes"
	"fmt"

	"repro/internal/opencl"
)

// ChainBuffer is a device buffer of a buffer-bound asynchronous host API
// (accelos.BufferHandle, service.RemoteBuffer).
type ChainBuffer interface {
	WriteAsync(off int64, data []byte, waits ...*opencl.Event) (*opencl.Event, error)
	ReadAsync(off int64, out []byte, waits ...*opencl.Event) (*opencl.Event, error)
	Release()
}

// ChainKernel is a kernel handle whose buffer arguments are B.
type ChainKernel[B ChainBuffer] interface {
	SetArgInt32(i int, v int32) error
	SetArgBuffer(i int, b B) error
}

// ChainHost creates B buffers and enqueues K kernels (accelos.App,
// service.Client).
type ChainHost[K ChainKernel[B], B ChainBuffer] interface {
	CreateBuffer(size int64) (B, error)
	EnqueueKernelAsync(k K, nd opencl.NDRange, waits ...*opencl.Event) (*opencl.Event, error)
}

// RunChain replays the kernel's verification launch through host with
// kern, a handle to k's kernel — uploads behind events, kernel behind
// the uploads, read-backs behind the kernel — and compares every buffer
// byte for byte against native, the reference RunNative returns.
func RunChain[K ChainKernel[B], B ChainBuffer](host ChainHost[K, B], kern K, k *Kernel, native [][]byte) error {
	spec := k.Setup()
	var bufs []B      // created buffers, in argument order
	var bufArgs []int // bufs[j] is argument bufArgs[j]
	defer func() {
		for _, b := range bufs {
			b.Release()
		}
	}()
	var uploads []*opencl.Event
	for i, a := range spec.Args {
		if a.Scalar != nil {
			if err := kern.SetArgInt32(i, int32(*a.Scalar)); err != nil {
				return err
			}
			continue
		}
		data := encodeArg(a)
		if data == nil {
			return fmt.Errorf("%s: argument %q has no value", k.FullName(), a.Name)
		}
		b, err := host.CreateBuffer(int64(len(data)))
		if err != nil {
			return fmt.Errorf("%s: buffer %q: %w", k.FullName(), a.Name, err)
		}
		bufs, bufArgs = append(bufs, b), append(bufArgs, i)
		ev, err := b.WriteAsync(0, data)
		if err != nil {
			return fmt.Errorf("%s: write %q: %w", k.FullName(), a.Name, err)
		}
		uploads = append(uploads, ev)
		if err := kern.SetArgBuffer(i, b); err != nil {
			return err
		}
	}
	nd := opencl.NDRange{Dims: spec.Dims, Global: spec.Global, Local: spec.Local}
	kev, err := host.EnqueueKernelAsync(kern, nd, uploads...)
	if err != nil {
		return fmt.Errorf("%s: enqueue: %w", k.FullName(), err)
	}
	outs := make([][]byte, len(bufs))
	reads := make([]*opencl.Event, 0, len(bufs))
	for j, b := range bufs {
		outs[j] = make([]byte, len(native[bufArgs[j]]))
		ev, err := b.ReadAsync(0, outs[j], kev)
		if err != nil {
			return fmt.Errorf("%s: read %q: %w", k.FullName(), spec.Args[bufArgs[j]].Name, err)
		}
		reads = append(reads, ev)
	}
	for _, ev := range reads {
		if err := ev.Wait(); err != nil {
			return fmt.Errorf("%s: pipeline: %w", k.FullName(), err)
		}
	}
	for j, i := range bufArgs {
		if !bytes.Equal(native[i], outs[j]) {
			return fmt.Errorf("%s: buffer %d (%s) differs from the native reference",
				k.FullName(), i, spec.Args[i].Name)
		}
	}
	return nil
}
