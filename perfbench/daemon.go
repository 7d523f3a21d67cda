package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is an acceld child process serving on a private socket.
type daemon struct {
	cmd    *exec.Cmd
	sock   string
	shmDir string
	out    *bufio.Reader
}

// maxSockPath keeps socket paths inside the smallest sun_path limit
// (104 bytes on BSDs, 108 on Linux).
const maxSockPath = 100

// startDaemon launches acceld on a socket under dir, which must be
// relative to the working directory or short enough to fit a unix
// socket address, and returns once it is serving.
func startDaemon(bin, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rundir, err := os.MkdirTemp(dir, "d")
	if err != nil {
		return nil, err
	}
	d := &daemon{sock: filepath.Join(rundir, "s"), shmDir: filepath.Join(rundir, "shm")}
	if len(d.sock) > maxSockPath {
		return nil, fmt.Errorf("socket path %q is longer than %d bytes", d.sock, maxSockPath)
	}
	if err := os.Mkdir(d.shmDir, 0o755); err != nil {
		return nil, err
	}
	d.cmd = exec.Command(bin, "-socket", d.sock, "-shm-dir", d.shmDir)
	d.cmd.Stderr = os.Stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start acceld: %w", err)
	}
	d.out = bufio.NewReader(stdout)
	ready := make(chan error, 1)
	go func() {
		line, err := d.out.ReadString('\n')
		if err == nil && !strings.HasPrefix(line, "acceld: serving") {
			err = fmt.Errorf("acceld: unexpected first line %q", line)
		}
		ready <- err
	}()
	select {
	case err = <-ready:
	case <-time.After(30 * time.Second):
		err = fmt.Errorf("acceld did not start serving within 30s")
	}
	if err != nil {
		_ = d.cmd.Process.Kill()
		_ = d.cmd.Wait()
		return nil, err
	}
	return d, nil
}

// stop sends SIGTERM and returns the metrics dump acceld prints while
// exiting. A daemon that does not exit cleanly within 30s, or leaves
// its socket or a buffer segment behind, is an error.
func (d *daemon) stop() (string, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return "", fmt.Errorf("signal acceld: %w", err)
	}
	type result struct {
		dump string
		err  error
	}
	res := make(chan result, 1)
	go func() {
		b, err := io.ReadAll(d.out)
		if werr := d.cmd.Wait(); err == nil {
			err = werr
		}
		res <- result{string(b), err}
	}()
	var r result
	select {
	case r = <-res:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-res
		return "", fmt.Errorf("acceld did not exit within 30s of SIGTERM")
	}
	if r.err != nil {
		return r.dump, fmt.Errorf("acceld exit: %w", r.err)
	}
	if _, err := os.Stat(d.sock); err == nil {
		return r.dump, fmt.Errorf("acceld left its socket %s behind", d.sock)
	}
	left, _ := os.ReadDir(d.shmDir)
	if len(left) > 0 {
		return r.dump, fmt.Errorf("acceld left %d buffer segment(s) behind", len(left))
	}
	return r.dump, os.RemoveAll(filepath.Dir(d.sock))
}

// series is one parsed line of a metrics dump.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// parseDump parses the registry text format acceld writes on exit:
// `name{k="v",...} value` lines and `#` comments.
func parseDump(text string) []series {
	var out []series
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		key := line[:sp]
		s := series{name: key, labels: map[string]string{}, value: v}
		if i := strings.IndexByte(key, '{'); i >= 0 && strings.HasSuffix(key, "}") {
			s.name = key[:i]
			for _, kv := range strings.Split(key[i+1:len(key)-1], ",") {
				k, val, ok := strings.Cut(kv, "=")
				if ok {
					s.labels[k] = strings.Trim(val, `"`)
				}
			}
		}
		out = append(out, s)
	}
	return out
}

// sum adds the values of every series named name whose labels include
// match.
func sumSeries(all []series, name string, match map[string]string) float64 {
	var t float64
next:
	for _, s := range all {
		if s.name != name {
			continue
		}
		for k, v := range match {
			if s.labels[k] != v {
				continue next
			}
		}
		t += s.value
	}
	return t
}

// meanQuantile averages a histogram quantile over the series that
// match (one per tenant), weighted equally.
func meanQuantile(all []series, name, q string, match map[string]string) float64 {
	m := map[string]string{"quantile": q}
	for k, v := range match {
		m[k] = v
	}
	var t float64
	n := 0
next:
	for _, s := range all {
		if s.name != name {
			continue
		}
		for k, v := range m {
			if s.labels[k] != v {
				continue next
			}
		}
		t += s.value
		n++
	}
	if n == 0 {
		return 0
	}
	return t / float64(n)
}

// procStatusMB reads a size field such as "VmHWM:" (peak resident set)
// from a /proc/<pid>/status file, in MB (0 where unavailable).
func procStatusMB(path, field string) float64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
