package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"stac/internal/model"
	"stac/internal/proof"
)

// daemon is one running stacd process.
type daemon struct {
	cmd   *exec.Cmd
	addrs map[model.ServerID]string
	creds map[model.ObjectID]proof.Credential
	// setup is the time from launch to the "ready" line.
	setup time.Duration
	done  chan error // receives cmd.Wait's result once
}

// writePolicy stores the run's policy where stacd can read it.
func writePolicy(dir string, in inputs) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("policy-%s-%d.stac", in.spec.name, os.Getpid()))
	return path, os.WriteFile(path, []byte(in.policy.Text), 0o644)
}

// stacdArgs are the flags of a stacd boot: the shipped defaults plus
// the coalition's policy, servers, key and resources.
func stacdArgs(in inputs, policyPath string) []string {
	servers := make([]string, len(in.vocab.Servers))
	for i, s := range in.vocab.Servers {
		servers[i] = string(s)
	}
	args := []string{
		"-policy", policyPath,
		"-servers", strings.Join(servers, ","),
		"-listen", "127.0.0.1:0",
		"-key", in.key,
		"-issue-credentials",
	}
	for _, r := range in.resources {
		args = append(args, "-resource", r)
	}
	return args
}

// boot launches stacd and waits for its "ready" line, collecting the
// bound addresses and the issued credentials on the way.
func boot(bin string, args []string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start stacd: %w", err)
	}
	d := &daemon{cmd: cmd, addrs: map[model.ServerID]string{}, creds: map[model.ObjectID]proof.Credential{}, done: make(chan error, 1)}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	ready := false
	for !ready && sc.Scan() {
		line := sc.Text()
		switch {
		case line == "ready":
			d.setup = time.Since(start)
			ready = true
		case strings.HasPrefix(line, "credential "):
			rest := strings.TrimPrefix(line, "credential ")
			_, blob, ok := strings.Cut(rest, " ")
			var c proof.Credential
			if !ok || json.Unmarshal([]byte(blob), &c) != nil {
				d.kill()
				return nil, fmt.Errorf("stacd: bad credential line %q", line)
			}
			d.creds[c.Object] = c
		default:
			id, addr, ok := strings.Cut(line, " ")
			if !ok {
				d.kill()
				return nil, fmt.Errorf("stacd: unexpected line %q", line)
			}
			d.addrs[model.ServerID(id)] = addr
		}
	}
	if !ready {
		d.kill()
		return nil, fmt.Errorf("stacd exited before ready: %v", sc.Err())
	}
	// stacd prints nothing after "ready"; drain anyway so a late
	// write can never block it.
	go func() {
		_, _ = io.Copy(io.Discard, out)
		d.done <- cmd.Wait()
	}()
	return d, nil
}

// stop shuts stacd down gracefully and waits for it to exit, killing
// it if it has not exited after ten seconds. stacd prints "ready"
// before it installs its SIGTERM handler, so a stop right after a boot
// may end it by the signal's default action; that counts as a clean
// stop too.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return err
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("stacd did not stop within 10s of SIGTERM")
	}
}

// kill ends a daemon whose boot failed (its waiter is not running).
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// CPU times; it is 100 on every Linux platform Go supports.
const clockTicks = 100

// procCPU reads a process's user+system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it
	// start past the last ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS reads a process's peak resident set (VmHWM) in bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM %q", line)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// hostSteal reads the machine-wide CPU time from /proc/stat: the time
// the hypervisor ran something else while this machine's CPUs were
// ready (steal), and the total. Both are in clock ticks.
func hostSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, x := range f[1:] {
		v, _ := strconv.ParseInt(x, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// selfCPU is the load process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
