package main

import (
	"bufio"
	"errors"
	"fmt"
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

// server is one roxserve process on loopback.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:PORT
	log  string
	done chan struct{} // closed once the process has been reaped
}

// children tracks every started server so that any exit path can stop them.
var children struct {
	sync.Mutex
	live map[*server]bool
}

// stopAll kills and reaps every server still running.
func stopAll() {
	children.Lock()
	live := make([]*server, 0, len(children.live))
	for s := range children.live {
		live = append(live, s)
	}
	children.Unlock()
	for _, s := range live {
		s.kill()
	}
}

// startServer execs roxserve with the corpus flags plus extra, waits until
// /v1/healthz answers, and returns the server with the time that took. The
// server's GOMAXPROCS is pinned to gomaxprocs.
func startServer(bin, dir string, args []string, gomaxprocs int) (*server, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	portFile := filepath.Join(dir, "port")
	os.Remove(portFile)
	logPath := filepath.Join(dir, "roxserve.log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	full := append([]string{"-addr", "127.0.0.1:0", "-portfile", portFile}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.done)
	}()
	children.Lock()
	if children.live == nil {
		children.live = map[*server]bool{}
	}
	children.live[s] = true
	children.Unlock()

	deadline := start.Add(120 * time.Second)
	hc := &http.Client{Timeout: 5 * time.Second}
	for {
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, fmt.Errorf("roxserve not ready after 120s (log %s)", logPath)
		}
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("roxserve exited during start-up: %s", tail(logPath))
		default:
		}
		if s.base == "" {
			if b, err := os.ReadFile(portFile); err == nil && strings.HasSuffix(string(b), "\n") {
				s.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if s.base != "" {
			if resp, err := hc.Get(s.base + "/v1/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					hc.CloseIdleConnections()
					return s, time.Since(start), nil
				}
			}
		}
		time.Sleep(100 * time.Microsecond) // fine enough not to round a 20 ms restart
	}
}

// kill sends SIGKILL and waits until the process has been reaped.
func (s *server) kill() {
	s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.done
	children.Lock()
	delete(children.live, s)
	children.Unlock()
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// tail returns the last lines of a log file, for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

// cpuTicks reads the steal and total ticks of all CPUs from /proc/stat;
// both are 0 where the file cannot be read.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9 and 10) are already in user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
