package main

import (
	"bytes"
	"context"
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
)

// engineSeed is the seed every served engine runs under; maxK bounds
// every request's samples and sizes the BFS Sharing index.
const (
	engineSeed = 42
	maxK       = 1000
)

// server is one relserver process on a loopback port.
type server struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan error
	once sync.Once
}

// startServer launches relserver with args (the graph or snapshot
// flags) and waits until /readyz answers.
func startServer(ctx context.Context, bin, logPath string, args ...string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	full := append([]string{"-addr", addr, "-maxk", strconv.Itoa(maxK)}, args...)
	cmd := exec.Command(filepath.Join(bin, "relserver"), full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			return s, nil
		}
		select {
		case err := <-s.done:
			s.done <- err // for stop, which waits on it
			s.stop()
			return nil, fmt.Errorf("relserver exited during start-up (%v); see %s", err, logPath)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("relserver did not listen within 60s; see %s", logPath)
		}
	}
}

// stop ends the process (SIGTERM, SIGKILL after 10 s) and waits for it.
// Later calls return at once.
func (s *server) stop() {
	s.once.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
		select {
		case <-s.done:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
		s.log.Close()
	})
}

// procCPU returns the process's user+system CPU time from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	rest := raw[bytes.LastIndexByte(raw, ')')+2:]
	f := strings.Fields(string(rest))
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticksPerSecond, nil
}

// procHWM returns the process's peak resident set (VmHWM) in MB.
func procHWM(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// engineStats is the part of /v1/engine/stats the benchmark reads.
type engineStats struct {
	Queries             uint64 `json:"queries"`
	CacheHits           uint64 `json:"cacheHits"`
	CacheMisses         uint64 `json:"cacheMisses"`
	CacheEvictions      uint64 `json:"cacheEvictions"`
	DedupedQueries      uint64 `json:"dedupedQueries"`
	AnytimeQueries      uint64 `json:"anytimeQueries"`
	AnytimeSamplesDrawn uint64 `json:"anytimeSamplesDrawn"`
	Admission           struct {
		Queued   uint64 `json:"queued"`
		Shed     uint64 `json:"shed"`
		TimedOut uint64 `json:"timedOut"`
		Degraded uint64 `json:"degraded"`
	} `json:"admission"`
	Mutations struct {
		Epoch              uint64 `json:"epoch"`
		Batches            uint64 `json:"batches"`
		InvalidatedSources uint64 `json:"invalidatedSources"`
		IndexRepairs       uint64 `json:"indexRepairs"`
		IndexRebuilds      uint64 `json:"indexRebuilds"`
	} `json:"mutations"`
}

func (s *server) stats(c *http.Client) (engineStats, error) {
	var st engineStats
	resp, err := c.Get(s.base + "/v1/engine/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("engine stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// post sends one JSON body and returns the status and response body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// newClient returns an HTTP client that holds one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}
