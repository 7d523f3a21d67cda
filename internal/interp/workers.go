package interp

import "runtime"

// helpers is the process-wide set of persistent goroutines that execute
// work-group batches for VM launches. Every machine borrows from it, so
// a process runs GOMAXPROCS helpers however many platforms, runtimes or
// machine pools it creates. It starts at package init and is never
// closed: its goroutines exist before any test or daemon lifecycle
// begins, so goroutine-leak checks count them in their baseline.
var helpers = newWorkerPool(0)

// workerPool is a fixed set of goroutines fed through an unbuffered
// channel. Tasks are self-sufficient group-claim loops (they pull group
// indices from the launch's atomic cursor until it runs dry), so the
// pool never needs to guarantee placement: TrySubmit hands a task to an
// idle worker if there is one, and the launching goroutine always runs
// the claim loop itself too. A fully busy pool therefore degrades to
// inline execution instead of queueing or deadlocking.
type workerPool struct {
	tasks chan func()
}

// newWorkerPool starts a pool of n persistent workers (n < 1 means
// GOMAXPROCS).
func newWorkerPool(n int) *workerPool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &workerPool{tasks: make(chan func())}
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

func (p *workerPool) worker() {
	for f := range p.tasks {
		f()
	}
}

// TrySubmit hands the task to an idle worker, reporting false (without
// running it) when every worker is busy.
func (p *workerPool) TrySubmit(f func()) bool {
	select {
	case p.tasks <- f:
		return true
	default:
		return false
	}
}
