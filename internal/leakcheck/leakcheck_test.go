package leakcheck

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

type runFunc func() int

func (f runFunc) Run() int { return f() }

func TestRunReportsLeak(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	var out bytes.Buffer
	code := run(runFunc(func() int {
		go func() { <-stop }()
		return 0
	}), 50*time.Millisecond, &out)
	if code == 0 {
		t.Fatal("a leaked goroutine passed the check")
	}
	if !strings.Contains(out.String(), "goroutines leaked") || !strings.Contains(out.String(), "TestRunReportsLeak") {
		t.Errorf("report lacks the count or the leaked goroutine's stack:\n%s", out.String())
	}
}

func TestRunWaitsForTeardown(t *testing.T) {
	var out bytes.Buffer
	code := run(runFunc(func() int {
		go time.Sleep(20 * time.Millisecond)
		return 0
	}), 5*time.Second, &out)
	if code != 0 {
		t.Fatalf("a goroutine that finished within the settle time failed the check:\n%s", out.String())
	}
}

func TestRunKeepsFailureStatus(t *testing.T) {
	var out bytes.Buffer
	if code := run(runFunc(func() int { return 3 }), time.Millisecond, &out); code != 3 {
		t.Errorf("exit status = %d, want the tests' own 3", code)
	}
	if out.Len() != 0 {
		t.Errorf("failed tests also got a leak report:\n%s", out.String())
	}
}
