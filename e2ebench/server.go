package main

// The server under test: a pinum-serve child process on a free loopback
// port with a fresh, empty snapshot store, its readiness and warm-up,
// scrapes of /statz and /metrics, CPU and memory accounting, and a
// SIGTERM teardown that must drain cleanly.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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
	"unsafe"

	"github.com/pinumdb/pinum/internal/serve"
)

type child struct {
	cmd  *exec.Cmd
	base string
	dir  string
	http *http.Client

	mu      sync.Mutex
	drained bool
	exited  chan struct{}
	waitErr error
}

// startServer launches pinum-serve over a fresh snapshot store in a new
// directory under work, with the workload's roster and residency cap.
func startServer(bin, work string, wl workloadDef) (*child, error) {
	dir, err := os.MkdirTemp(work, "srv-")
	if err != nil {
		return nil, err
	}
	roster, err := json.Marshal(map[string]any{"tenants": wl.roster})
	if err != nil {
		return nil, err
	}
	rosterPath := filepath.Join(dir, "roster.json")
	if err := os.WriteFile(rosterPath, roster, 0o644); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{
		"-addr", addr,
		"-tenants", rosterPath,
		"-snapshot-dir", filepath.Join(dir, "store"),
		"-tenant-cap", strconv.Itoa(wl.tenantCap),
		"-drain-timeout", "5s",
	}
	c := &child{
		cmd:    exec.Command(bin, args...),
		base:   "http://" + addr,
		dir:    dir,
		http:   &http.Client{Timeout: 30 * time.Second},
		exited: make(chan struct{}),
	}
	// The child dies with the benchmark even if the benchmark is killed
	// or exits on a fatal error; the normal paths stop it with a checked
	// SIGTERM drain.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go c.watch(stderr)
	return c, nil
}

// watch drains the child's log (one line per request, so it must never
// back up) and records whether the SIGTERM drain completed.
func (c *child) watch(r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if strings.Contains(sc.Text(), "drained; exiting") {
			c.mu.Lock()
			c.drained = true
			c.mu.Unlock()
		}
	}
	_, _ = io.Copy(io.Discard, r)
	c.waitErr = c.cmd.Wait()
	close(c.exited)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls /readyz until it answers 200.
func (c *child) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			return fmt.Errorf("pinum-serve exited before becoming ready: %v", c.waitErr)
		default:
		}
		resp, err := c.http.Get(c.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("pinum-serve not ready after %v", timeout)
}

// warmUp touches every roster tenant once with an empty /whatif, so each
// has been built (and saved to the store) before measurement starts.
func (c *child) warmUp(roster []tenantSpec) error {
	for _, ts := range roster {
		status, body, err := c.do(http.MethodPost, "/whatif", ts.Name, []byte(`{"indexes":[]}`))
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up of tenant %s: status %d: %s", ts.Name, status, bytes.TrimSpace(body))
		}
	}
	return nil
}

func (c *child) do(method, path, tenant string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if tenant != "" {
		req.Header.Set(serve.TenantHeader, tenant)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// statz is the part of GET /statz the benchmark reads.
type statz struct {
	Rejected int64                        `json:"rejected"`
	Tenants  map[string]serve.TenantStats `json:"tenants"`
}

func (c *child) statz() (*statz, error) {
	status, body, err := c.do(http.MethodGet, "/statz", "", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/statz: status %d", status)
	}
	var s statz
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("/statz: %w", err)
	}
	return &s, nil
}

func (s *statz) sum(f func(serve.TenantStats) int64) int64 {
	var n int64
	for _, t := range s.Tenants {
		n += f(t)
	}
	return n
}

// metrics scrapes GET /metrics into series name → summed value (labels
// collapsed: the benchmark wants process-wide totals).
func (c *child) metrics() (map[string]float64, error) {
	status, body, err := c.do(http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out[name] += v
	}
	return out, nil
}

// cpuSeconds is the child's user+sys CPU time so far, read from its
// process CPU clock (clock_gettime on the clock id of another process):
// the same accounting as utime+stime in /proc/<pid>/stat, at nanosecond
// rather than clock-tick resolution.
func (c *child) cpuSeconds() (float64, error) {
	clock := (^uintptr(c.cmd.Process.Pid))<<3 | 2 // CPUCLOCK_SCHED, whole process
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("process CPU clock of pid %d: %v", c.cmd.Process.Pid, errno)
	}
	return float64(ts.Nano()) / 1e9, nil
}

// peakRSSMB is the exited child's peak resident set in MiB: ru_maxrss
// from its wait status, the same figure /proc reports as VmHWM.
func (c *child) peakRSSMB() (float64, error) {
	<-c.exited
	ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, fmt.Errorf("no resource usage for pinum-serve")
	}
	return float64(ru.Maxrss) / 1024, nil
}

// stop sends SIGTERM and waits for a clean drain: exit status 0 and the
// "drained" log line. A child that does not exit in time is killed, and
// that is an error — no stray server may outlive the benchmark.
func (c *child) stop() error {
	defer os.RemoveAll(c.dir)
	select {
	case <-c.exited:
		return fmt.Errorf("pinum-serve exited early: %v", c.waitErr)
	default:
	}
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-c.exited:
	case <-time.After(15 * time.Second):
		c.cmd.Process.Kill()
		<-c.exited
		return fmt.Errorf("pinum-serve did not exit within 15s of SIGTERM; killed")
	}
	c.mu.Lock()
	drained := c.drained
	c.mu.Unlock()
	if c.waitErr != nil {
		return fmt.Errorf("pinum-serve exit after SIGTERM: %v", c.waitErr)
	}
	if !drained {
		return fmt.Errorf("pinum-serve exited without logging its drain")
	}
	return nil
}

// kill is the error-path teardown: no checks, just make sure the child
// is gone.
func (c *child) kill() {
	select {
	case <-c.exited:
	default:
		c.cmd.Process.Kill()
		<-c.exited
	}
	os.RemoveAll(c.dir)
}
