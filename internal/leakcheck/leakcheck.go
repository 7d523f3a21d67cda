// Package leakcheck fails a test binary whose tests leave goroutines
// running. Call it from TestMain in place of os.Exit(m.Run()).
package leakcheck

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"
)

// settle is how long goroutines get to finish after the tests pass:
// teardown that is merely asynchronous (a closed socket's read loop, a
// timer's last callback) must not count as a leak.
const settle = 5 * time.Second

// Main runs the package's tests and exits with their status. When they
// pass but goroutines started during them are still running after
// settle, it prints every goroutine's stack and exits non-zero.
func Main(m *testing.M) {
	os.Exit(run(m, settle, os.Stderr))
}

func run(m interface{ Run() int }, wait time.Duration, w io.Writer) int {
	before := runtime.NumGoroutine()
	if code := m.Run(); code != 0 {
		return code
	}
	deadline := time.Now().Add(wait)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(w, "leakcheck: goroutines leaked: %d before the tests, %d after\n\n%s\n",
				before, runtime.NumGoroutine(), buf)
			return 1
		}
		time.Sleep(10 * time.Millisecond)
	}
	return 0
}
