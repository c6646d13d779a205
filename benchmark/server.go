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
	"strconv"
	"strings"
	"syscall"
	"time"
)

// opTimeout is the hard per-request limit: an operation that has not
// answered by then counts as failed instead of hanging the run.
const opTimeout = 60 * time.Second

// tarmd is one running server subprocess.
type tarmd struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	client *http.Client
	log    *os.File
	exited chan struct{} // closed once the process has been reaped
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before tarmd binds it; the window is harmless on a box that
// runs nothing else.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startTarmd launches the binary on dir with default flags plus -wal
// (fsync always) and the given extra flags, and waits for /healthz.
// stderr is appended to logPath.
func startTarmd(bin, dir, logPath string, extra ...string) (*tarmd, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-db", dir, "-addr", addr, "-wal"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// A harness that dies must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start tarmd: %w", err)
	}
	s := &tarmd{
		cmd:  cmd,
		base: "http://" + addr,
		log:  logf,
		// One connection, kept alive: the workloads are one closed-loop
		// client, and connection set-up is not what they measure.
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
	}
	exited := make(chan struct{})
	s.exited = exited
	go func() {
		_ = cmd.Wait() // the exit status of a killed server carries no information
		close(exited)
	}()
	deadline := time.Now().Add(opTimeout)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-exited:
			logf.Close()
			return nil, fmt.Errorf("tarmd exited before becoming ready (see %s)", logPath)
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("tarmd not ready after %s (see %s)", opTimeout, logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill is kill -9 followed by a wait: the crash the durability
// contract is written against. Safe to call twice.
func (s *tarmd) kill() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine
	<-s.exited
	s.client.CloseIdleConnections()
	s.log.Close()
}

// peakRSSMB is the process's high-water resident set: the VmHWM line
// of /proc/<pid>/status, which is in kB.
func (s *tarmd) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// cpuMS is user+system CPU consumed by the process so far.
func (s *tarmd) cpuMS() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times")
	}
	const clkTck = 100 // USER_HZ on every Linux ABI Go supports
	return (ut + st) * 1000 / clkTck, nil
}

// do issues one request under the per-op timeout and returns the whole
// body. A non-2xx status is an error carrying the body.
func (s *tarmd) do(method, path, contentType string, body []byte, header ...string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, out)
	}
	return out, nil
}

func (s *tarmd) getJSON(path string, v any) error {
	raw, err := s.do(http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// statement runs one MINE statement and returns the text rendering —
// the aligned table tarmine prints, which carries no timing or ids and
// so digests to the same value on every correct run. rid, when set,
// becomes the statement's trace id.
func (s *tarmd) statement(stmt, rid string) ([]byte, error) {
	var hdr []string
	if rid != "" {
		hdr = []string{"X-Request-ID", rid}
	}
	return s.do(http.MethodPost, "/v1/statements?format=text", "text/plain", []byte(stmt), hdr...)
}

// appendAck is the slice of the /v1/append answer the harness checks.
type appendAck struct {
	Appended int     `json:"appended"`
	Durable  bool    `json:"durable"`
	WallMS   float64 `json:"wall_ms"`
}

func (s *tarmd) append(body []byte, rid string) (appendAck, error) {
	var ack appendAck
	var hdr []string
	if rid != "" {
		hdr = []string{"X-Request-ID", rid}
	}
	raw, err := s.do(http.MethodPost, "/v1/append", "application/json", body, hdr...)
	if err != nil {
		return ack, err
	}
	return ack, json.Unmarshal(raw, &ack)
}

func (s *tarmd) flush() error {
	_, err := s.do(http.MethodPost, "/v1/flush", "", nil)
	return err
}

// rows returns the row count GET /v1/tables reports for the table.
func (s *tarmd) rows() (int, error) {
	var infos []struct {
		Name string `json:"name"`
		Rows int    `json:"rows"`
	}
	if err := s.getJSON("/v1/tables", &infos); err != nil {
		return 0, err
	}
	for _, t := range infos {
		if t.Name == tableName {
			return t.Rows, nil
		}
	}
	return 0, fmt.Errorf("table %s not listed", tableName)
}

// scrape reads /metrics into name → value (histogram buckets skipped).
func (s *tarmd) scrape() (map[string]float64, error) {
	raw, err := s.do(http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// cacheStats is the slice of GET /v1/cache the validity checks read.
type cacheStats struct {
	Stats struct {
		Hits         int64 `json:"hits"`
		Rethresholds int64 `json:"rethresholds"`
		Misses       int64 `json:"misses"`
		Deltas       int64 `json:"deltas"`
		Evictions    int64 `json:"evictions"`
	} `json:"stats"`
}

func (s *tarmd) cache() (cacheStats, error) {
	var c cacheStats
	return c, s.getJSON("/v1/cache", &c)
}

// memstats is the slice of /debug/vars the runtime layer metrics read.
type memstats struct {
	Memstats struct {
		HeapAlloc    uint64 `json:"HeapAlloc"`
		TotalAlloc   uint64 `json:"TotalAlloc"`
		NumGC        uint32 `json:"NumGC"`
		PauseTotalNs uint64 `json:"PauseTotalNs"`
	} `json:"memstats"`
}

func (s *tarmd) memstats() (memstats, error) {
	var m memstats
	return m, s.getJSON("/debug/vars", &m)
}
