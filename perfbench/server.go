package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"maras/internal/store"
)

// serverProc is a maras-server -store subprocess on a loopback port,
// with shipped defaults apart from the address and store directory.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
}

// startServer launches the server and waits until /readyz answers
// 200, returning the time that took.
func startServer(bin, storeDir, logPath string) (*serverProc, time.Duration, error) {
	if bin == "" {
		return nil, 0, errors.New("serving workloads need -server-bin")
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	start := time.Now()
	cmd := exec.Command(bin, "-store", storeDir, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark even if the benchmark is
	// killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, log: logf}
	hc := &http.Client{Timeout: time.Second}
	for deadline := start.Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		resp, err := hc.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return s, time.Since(start), nil
			}
		}
	}
	s.stop()
	return nil, 0, fmt.Errorf("maras-server not ready within 60s (log: %s)", logPath)
}

// stop sends SIGTERM, waits for the drain, and kills the server if it
// has not exited within 10s.
func (s *serverProc) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { s.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
	s.log.Close()
}

func (s *serverProc) pid() int { return s.cmd.Process.Pid }

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// procStatusKB reads a "Key: N kB" line of /proc/<pid>/status.
func procStatusKB(pid int, key string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && k == key {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("%s not in /proc/%d/status", key, pid)
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// procCPU is the process's user+system CPU time so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime
	// are fields 14 and 15 of the whole line.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b)[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// scrape sums the named counter families from the server's /metrics
// exposition across their label sets.
func scrape(ctx context.Context, hc *http.Client, base string, families ...string) (map[string]float64, error) {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	want := map[string]bool{}
	for _, f := range families {
		want[f] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
			if j := strings.LastIndexByte(line, '}'); j >= 0 {
				rest, ok = strings.TrimSpace(line[j+1:]), true
			}
		}
		if !ok || !want[name] {
			continue
		}
		if f := strings.Fields(rest); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				out[name] += v
			}
		}
	}
	return out, sc.Err()
}

// measureStoreReads times store.Decode over a snapshot's bytes and a
// cold Registry.Load on a fresh registry, in this process, and checks
// that the decoded quarter carries the signals that were written.
func measureStoreReads(res *result, storeDir, label string) error {
	path := snapshotPath(storeDir, label)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var dec, cold []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		snap, err := store.Decode(data)
		dec = append(dec, ms(time.Since(start)))
		if err != nil {
			return err
		}
		if want, ok := res.Detail["fingerprint"].(string); ok && i == 0 {
			if fp := fingerprint(signalsOf(snap.Analysis)); fp != want {
				res.problem("snapshot %s decodes to fingerprint %s, mined %s", filepath.Base(path), fp, want)
			}
		}
		reg, err := store.OpenRegistry(storeDir, store.RegistryOptions{})
		if err != nil {
			return err
		}
		start = time.Now()
		_, err = reg.Load(label)
		cold = append(cold, ms(time.Since(start)))
		if err != nil {
			return err
		}
	}
	res.Metrics["store.decode_ms"] = median(dec)
	res.Metrics["store.cold_load_ms"] = median(cold)
	res.Metrics["store.snapshot_bytes"] = float64(len(data))
	return nil
}
