package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/registry"
)

// daemon is one mctopd child process. Its standard error — the request
// log included — goes to a file, so the per-request log cost stays in the
// measurement.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been waited for
	base   string        // http://host:port
	log    *os.File
}

var servingRE = regexp.MustCompile(`serving topology queries on (\S+)`)

// startDaemon execs mctopd with args (plus a kernel-chosen loopback port)
// and returns once /readyz answers 200, with the time that took.
func startDaemon(bin, logPath string, args ...string) (*daemon, time.Duration, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// Should this process die without stopping the daemon, the kernel
	// kills the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, 0, fmt.Errorf("exec %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, log: lf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a daemon ended by stop exits on SIGTERM; its status says nothing
		close(d.exited)
	}()
	deadline := begin.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			lf.Close()
			return nil, 0, fmt.Errorf("mctopd exited during start-up; see %s", logPath)
		default:
		}
		if d.base == "" {
			if m := servingRE.FindSubmatch(readFile(logPath)); m != nil {
				d.base = "http://" + string(m[1])
			}
		} else if resp, err := httpc.Get(d.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(begin), nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	_ = cmd.Process.Kill() // it may have exited meanwhile; exited says when
	<-d.exited
	lf.Close()
	return nil, 0, fmt.Errorf("mctopd not ready within 30 s; see %s", logPath)
}

func readFile(path string) []byte {
	b, _ := os.ReadFile(path) // polled: a missing or partial file reads again
	return b
}

// stop sends SIGTERM — mctopd drains and flushes its spool — and waits for
// the process to end, killing it after 30 s.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it has already exited
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

// ticksPerSecond is USER_HZ, the unit of /proc's CPU times on Linux.
const ticksPerSecond = 100

// procSample is what /proc says about a daemon: CPU time (user + system)
// and peak resident set size.
type procSample struct {
	cpu   time.Duration
	hwmKB int64
}

func (d *daemon) proc() (procSample, error) {
	pid := d.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procSample{}, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	i := bytes.LastIndexByte(stat, ')')
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return procSample{}, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	s := procSample{cpu: time.Duration(ut+st) * time.Second / ticksPerSecond}
	status, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procSample{}, err
	}
	defer status.Close()
	sc := bufio.NewScanner(status)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			s.hwmKB, _ = strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
		}
	}
	return s, sc.Err()
}

// stealTime reads the machine's total steal time from /proc/stat.
func stealTime() (time.Duration, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line)) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	st, err := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(st) * time.Second / ticksPerSecond, err
}

// stats reads the daemon's public /v1/stats counters.
func (d *daemon) stats(ctx context.Context) (registry.Stats, error) {
	var st registry.Stats
	req, err := http.NewRequestWithContext(ctx, "GET", d.base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// tier returns the named tier's counters from a stats snapshot.
func tier(st registry.Stats, name string) registry.StoreStats {
	for _, t := range st.Tiers {
		if t.Tier == name {
			return t
		}
	}
	return registry.StoreStats{}
}
