package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
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

// findRoot walks up from the working directory to the gcacc module root,
// so the benchmark runs alike from the repository root and from bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(mod, []byte("module gcacc\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no gcacc module root above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/gca-serve from source into out.
func buildServer(ctx context.Context, root, out string) (string, error) {
	bin := filepath.Join(out, "gca-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/gca-serve")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building gca-serve: %v\n%s", err, msg)
	}
	return bin, nil
}

// server is one gca-serve child process.
type server struct {
	base   string
	cmd    *exec.Cmd
	exited chan struct{}
	log    *startLog
}

// startLog is a server's standard error. It discards the log but closes
// listening when the "listening on" line arrives, so waitHealthy can
// block until the server is about to accept instead of polling through
// its start-up, which would take CPU from it on a 2-core host.
type startLog struct {
	once      sync.Once
	listening chan struct{}
}

func (l *startLog) Write(p []byte) (int, error) {
	// log.Printf writes each line in one call, and a pipe delivers a
	// write this short whole.
	if bytes.Contains(p, []byte("gca-serve: listening on")) {
		l.once.Do(func() { close(l.listening) })
	}
	return len(p), nil
}

// fleet is the set of replicas serving one workload.
type fleet struct {
	servers []*server
	ctl     *http.Client // control plane: health, stats, set-up; never the load
}

// startFleet spawns replicas gca-serve processes with default flags on
// free local ports, wired into one ring when there is more than one,
// and waits until each answers /healthz.
func startFleet(ctx context.Context, bin string, replicas int) (*fleet, error) {
	ports, err := freePorts(replicas)
	if err != nil {
		return nil, err
	}
	var peers []string
	for _, p := range ports {
		peers = append(peers, "http://127.0.0.1:"+strconv.Itoa(p))
	}
	f := &fleet{ctl: &http.Client{Timeout: time.Minute}}
	for i, p := range ports {
		a := []string{"-addr", "127.0.0.1:" + strconv.Itoa(p)}
		if replicas > 1 {
			a = append(a, "-peers", strings.Join(peers, ","), "-self", strconv.Itoa(i))
		}
		cmd := exec.Command(bin, a...)
		// The kernel kills the child if the benchmark dies before stop runs.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		log := &startLog{listening: make(chan struct{})}
		cmd.Stderr = log
		if err := cmd.Start(); err != nil {
			f.stop()
			return nil, fmt.Errorf("starting gca-serve: %w", err)
		}
		s := &server{base: peers[i], cmd: cmd, exited: make(chan struct{}), log: log}
		go func() {
			_ = cmd.Wait() // killed by stop; the exit status carries nothing
			close(s.exited)
		}()
		f.servers = append(f.servers, s)
	}
	for _, s := range f.servers {
		if err := f.waitHealthy(ctx, s); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// freePorts reserves n distinct free TCP ports on the loopback.
func freePorts(n int) ([]int, error) {
	var ports []int
	for len(ports) < n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer func() { _ = l.Close() }()
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// waitHealthy waits for the server's "listening on" line, then polls
// /healthz until it answers 200: the line is logged as the listener
// starts, so a few polls cover the gap.
func (f *fleet) waitHealthy(ctx context.Context, s *server) error {
	const limit = 30 * time.Second
	deadline := time.Now().Add(limit)
	select {
	case <-s.log.listening:
	case <-s.exited:
		return fmt.Errorf("gca-serve at %s exited during start-up", s.base)
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(limit):
		return fmt.Errorf("gca-serve at %s did not log listening within %v", s.base, limit)
	}
	for time.Now().Before(deadline) {
		resp, err := f.ctl.Get(s.base + "/healthz")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("gca-serve at %s exited during start-up", s.base)
		default:
		}
		if err := sleepUntil(ctx, time.Now().Add(100*time.Microsecond)); err != nil {
			return err
		}
	}
	return fmt.Errorf("gca-serve at %s not healthy after %v", s.base, limit)
}

// stop kills every replica and waits until each has exited.
func (f *fleet) stop() {
	for _, s := range f.servers {
		_ = s.cmd.Process.Kill() // fails only if the process already exited
	}
	for _, s := range f.servers {
		<-s.exited
	}
	f.ctl.CloseIdleConnections()
}

func (f *fleet) bases() []string {
	out := make([]string, len(f.servers))
	for i, s := range f.servers {
		out[i] = s.base
	}
	return out
}

// call makes one control-plane request and decodes a JSON answer into v
// (when v is non-nil); any status other than 200 or 201 is an error.
func (f *fleet) call(ctx context.Context, method, url string, body []byte, v any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := f.ctl.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		var e struct{ Error string }
		_ = json.NewDecoder(resp.Body).Decode(&e) // best effort: the status is the error
		return fmt.Errorf("%s %s: status %d %s", method, url, resp.StatusCode, e.Error)
	}
	if v == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// counters is one replica's cumulative counters, from /v1/stats,
// /debug/vars and /proc. Deltas of two snapshots give a phase's share.
type counters struct {
	completed, cacheHits, cacheMisses, cacheEvictions int64
	coalesced, rejectedFull                           int64
	proxied, peerErrors, fallbackLocal                int64
	recomputes                                        int64
	totalAlloc, numGC                                 uint64
	cpuTicks                                          int64
	peakRSSKB                                         int64
}

func (f *fleet) snapshot(ctx context.Context) ([]counters, error) {
	out := make([]counters, len(f.servers))
	for i, s := range f.servers {
		var st struct {
			Completed      int64 `json:"completed"`
			CacheHits      int64 `json:"cache_hits"`
			CacheMisses    int64 `json:"cache_misses"`
			CacheEvictions int64 `json:"cache_evictions"`
			Coalesced      int64 `json:"coalesced"`
			RejectedFull   int64 `json:"rejected_queue_full"`
			Cluster        struct {
				Proxied       int64 `json:"proxied"`
				PeerErrors    int64 `json:"peer_errors"`
				FallbackLocal int64 `json:"fallback_local"`
			} `json:"cluster"`
		}
		if err := f.call(ctx, http.MethodGet, s.base+"/v1/stats", nil, &st); err != nil {
			return nil, err
		}
		var vars struct {
			Memstats struct{ TotalAlloc, NumGC uint64 } `json:"memstats"`
			Stream   struct {
				Recomputes int64 `json:"recomputes"`
			} `json:"gcacc_stream"`
		}
		if err := f.call(ctx, http.MethodGet, s.base+"/debug/vars", nil, &vars); err != nil {
			return nil, err
		}
		c := counters{
			completed: st.Completed, cacheHits: st.CacheHits, cacheMisses: st.CacheMisses,
			cacheEvictions: st.CacheEvictions, coalesced: st.Coalesced, rejectedFull: st.RejectedFull,
			proxied: st.Cluster.Proxied, peerErrors: st.Cluster.PeerErrors, fallbackLocal: st.Cluster.FallbackLocal,
			recomputes: vars.Stream.Recomputes,
			totalAlloc: vars.Memstats.TotalAlloc, numGC: vars.Memstats.NumGC,
		}
		var err error
		if c.cpuTicks, c.peakRSSKB, err = procStats(s.cmd.Process.Pid); err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every mainstream architecture.
const clockTicks = 100

// procStats reads a process's CPU time (user + system, in clock ticks)
// and its peak resident set (VmHWM, in KiB) from /proc.
func procStats(pid int) (ticks, hwmKB int64, err error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 of the rest.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	fields := strings.Fields(string(rest))
	if len(fields) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	for _, f := range fields[11:13] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		ticks += v
	}
	status, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	defer func() { _ = status.Close() }()
	sc := bufio.NewScanner(status)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			hwmKB, err = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return ticks, hwmKB, err
		}
	}
	return ticks, 0, sc.Err()
}

// delta sums the per-replica differences b − a; peak RSS is the largest
// replica's.
func delta(a, b []counters) counters {
	var d counters
	for i := range a {
		d.completed += b[i].completed - a[i].completed
		d.cacheHits += b[i].cacheHits - a[i].cacheHits
		d.cacheMisses += b[i].cacheMisses - a[i].cacheMisses
		d.cacheEvictions += b[i].cacheEvictions - a[i].cacheEvictions
		d.coalesced += b[i].coalesced - a[i].coalesced
		d.rejectedFull += b[i].rejectedFull - a[i].rejectedFull
		d.proxied += b[i].proxied - a[i].proxied
		d.peerErrors += b[i].peerErrors - a[i].peerErrors
		d.fallbackLocal += b[i].fallbackLocal - a[i].fallbackLocal
		d.recomputes += b[i].recomputes - a[i].recomputes
		d.totalAlloc += b[i].totalAlloc - a[i].totalAlloc
		d.numGC += b[i].numGC - a[i].numGC
		d.cpuTicks += b[i].cpuTicks - a[i].cpuTicks
		d.peakRSSKB = max(d.peakRSSKB, b[i].peakRSSKB)
	}
	return d
}
