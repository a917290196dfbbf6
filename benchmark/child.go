package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A child is the iyp-serve process under test. It has its own heap and
// garbage collector, so the generator's allocations cannot disturb it and
// its peak resident size can be read from the kernel.
type child struct {
	cmd  *exec.Cmd
	addr string
	logs bytes.Buffer
	done chan struct{} // closed when the process has been waited for
	err  error         // its exit status, valid once done is closed
}

// startChild runs bin with args on a free loopback port and returns once
// GET readyPath answers 200.
func startChild(bin, readyPath string, args ...string) (*child, error) {
	// Reserve a port by binding it; the child rebinds it a moment later.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("child: reserve port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()

	c := &child{addr: addr, done: make(chan struct{})}
	c.cmd = exec.Command(bin, append(args, "-addr", addr)...)
	c.cmd.Stdout = &c.logs
	c.cmd.Stderr = &c.logs
	// If the benchmark dies without running its teardown, the kernel takes
	// the child down with it.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("child: start %s: %w", bin, err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.done)
	}()

	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-c.done:
			return nil, fmt.Errorf("child: exited before it was ready: %v\n%s", c.err, c.logs.String())
		default:
		}
		resp, err := http.Get("http://" + addr + readyPath)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("child: not ready after 60s\n%s", c.logs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop ends the process and returns once it is gone and its port is free.
func (c *child) stop() {
	select {
	case <-c.done:
		return
	default:
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // it may have just exited
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// rssPeakMB is the process's resident-set high-water mark.
func (c *child) rssPeakMB() (float64, error) {
	return rssPeakMB(c.cmd.Process.Pid)
}

func rssPeakMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("rss: %q: %w", sc.Text(), err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("rss: no VmHWM for pid %d", pid)
}

// scrape reads GET /metrics into name -> value; a labelled series keeps its
// label set in the name, as in `iyp_sheds_total{reason="cost"}`.
func (c *child) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + c.addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[line[:sp]] = v
		}
	}
	return out, sc.Err()
}
