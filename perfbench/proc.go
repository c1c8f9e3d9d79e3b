package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"maxembed/internal/server"
)

// serverProc is a maxembed-server child process.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	client *http.Client
	exited chan error // receives Wait's result once
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

// startServer launches the server binary with args plus a loopback
// -addr, logging to logPath, and waits until /healthz answers 200 or ctx
// ends. It returns the wall time from launch to ready.
func startServer(ctx context.Context, bin string, args []string, logPath string) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting server: %w", err)
	}
	s := &serverProc{
		cmd:    cmd,
		base:   "http://" + addr,
		client: &http.Client{Timeout: 30 * time.Second},
		exited: make(chan error, 1),
	}
	go func() { s.exited <- cmd.Wait() }()
	for {
		select {
		case err := <-s.exited:
			s.exited <- err
			return nil, 0, fmt.Errorf("server exited before ready (%v); log in %s", err, logPath)
		case <-ctx.Done():
			s.stop()
			return nil, 0, fmt.Errorf("server not ready: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
		resp, err := s.client.Get(s.base + "/healthz")
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return s, time.Since(t0), nil
		}
	}
}

// stop kills the server and waits for it to exit.
func (s *serverProc) stop() {
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.exited
	s.client.CloseIdleConnections()
}

// cpuSeconds returns the process's user+system CPU time.
func (s *serverProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times on Linux.
const clockTicks = 100

// rssMB returns the process's resident set size in MiB.
func rssMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// rssWatch samples a process's resident set every 50 ms.
type rssWatch struct {
	quit chan struct{}
	done chan struct{}
	mb   []float64
	err  error
}

func watchRSS(pid int) *rssWatch {
	w := &rssWatch{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			mb, err := rssMB(pid)
			if err != nil {
				w.err = err
				return
			}
			w.mb = append(w.mb, mb)
			select {
			case <-w.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// stop ends sampling and returns the median resident set in MiB. The
// median, unlike the peak, does not hinge on where a collection cycle
// happened to fall.
func (w *rssWatch) stop() (float64, error) {
	close(w.quit)
	<-w.done
	return median(w.mb), w.err
}

// stats fetches /v1/stats.
func (s *serverProc) stats() (server.StatsResponse, error) {
	var st server.StatsResponse
	resp, err := s.client.Get(s.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// refresh fires POST /v1/refresh and waits for the swap.
func (s *serverProc) refresh(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/refresh", nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/v1/refresh: %s", resp.Status)
	}
	return nil
}
