package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// buildDaemon compiles cmd/resilserverd from the tree at root into the
// benchmark's build directory and returns the binary's path.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "resilserverd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/resilserverd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/resilserverd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one resilserverd process on a loopback port. Its parent-death
// signal is SIGKILL, so it cannot outlive the benchmark even when the
// benchmark itself is killed.
type daemon struct {
	cmd   *exec.Cmd
	url   string
	start time.Time     // just before the process was started
	done  chan struct{} // closed once the process has been reaped
	log   *syncBuffer
}

// syncBuffer collects the daemon's log for error reports.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.buf.Len() > 1<<16 {
		return len(p), nil
	}
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon runs bin with args on a free loopback port and waits until
// /healthz answers 200. Call from the main goroutine only: the parent-death
// signal is tied to the starting thread, which main keeps locked.
func startDaemon(bin string, args ...string) (*daemon, error) {
	for attempt := 1; ; attempt++ {
		d, err := launch(bin, args)
		// Another process can take the free port before the daemon binds it.
		if err == nil || attempt == 3 || !strings.Contains(err.Error(), "address already in use") {
			return d, err
		}
	}
}

func launch(bin string, args []string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	d := &daemon{url: "http://" + addr, done: make(chan struct{}), log: &syncBuffer{}}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.start = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status of a killed daemon carries nothing
		close(d.done)
	}()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("resilserverd exited during start-up:\n%s", d.log)
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("resilserverd not healthy after 60s:\n%s", d.log)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill sends SIGKILL and waits until the process has been reaped. Safe to
// call more than once.
func (d *daemon) kill() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Kill() // fails only when the process is already gone
	<-d.done
}

// cpu returns the daemon's user+sys CPU time so far, all threads.
func (d *daemon) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat line %q", s)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// rssPeakMiB returns the daemon's peak resident set size (VmHWM).
func (d *daemon) rssPeakMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// usage adds server_cpu_ms_per_op and server_rss_peak_mb to m: the CPU
// time since cpu0 (read when the timed phase began) per operation, and the
// peak resident set so far.
func (d *daemon) usage(cpu0 time.Duration, ops int, m map[string]metric) error {
	c, err := d.cpu()
	if err != nil {
		return err
	}
	rss, err := d.rssPeakMiB()
	if err != nil {
		return err
	}
	m["server_cpu_ms_per_op"] = metric{float64(c-cpu0) / float64(time.Millisecond) / float64(ops), "ms"}
	m["server_rss_peak_mb"] = metric{rss, "MiB"}
	return nil
}

// waitCtx bounds one benchmark-side wait so a wedged daemon fails the run
// instead of hanging it.
func waitCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 60*time.Second)
}
