package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
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

// proc is one server process the benchmark started: volcano-serve or
// volcano-worker. Its standard error is kept for diagnostics.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string // HTTP address it announced

	mu     sync.Mutex
	log    strings.Builder
	logged chan struct{} // closed once standard error reaches EOF
}

// startProc runs bin with args and waits until it prints marker followed
// by its listen address on standard error.
func startProc(name, bin string, args []string, marker string) (*proc, error) {
	p := &proc{name: name, cmd: exec.Command(bin, args...), logged: make(chan struct{})}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(p.logged)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.log.WriteString(line + "\n")
			p.mu.Unlock()
			if _, rest, ok := strings.Cut(line, marker); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrc <- addr:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not come up: %s", name, p.stderr())
	}
}

func (p *proc) stderr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log.String()
}

// stop asks the process to drain with SIGTERM, kills it if it has not
// exited after ten seconds, and waits for it.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
	<-p.logged
}

// cluster is the set of processes serving one workload: volcano-serve
// and, for dist-agg, its workers.
type cluster struct {
	serve   *proc
	workers []*proc
}

func (c *cluster) procs() []*proc { return append([]*proc{c.serve}, c.workers...) }

func (c *cluster) stop() {
	for i := len(c.workers) - 1; i >= 0; i-- {
		c.workers[i].stop()
	}
	if c.serve != nil {
		c.serve.stop()
	}
}

// startCluster starts volcano-serve over db with the shipped defaults
// (except -frames when the workload sets it) and the workload's workers,
// and waits until every worker is live.
func startCluster(binDir, db string, w *workload) (*cluster, error) {
	args := []string{"-db", db, "-addr", "127.0.0.1:0"}
	if w.frames > 0 {
		args = append(args, "-frames", strconv.Itoa(w.frames))
	}
	if w.workers > 0 {
		args = append(args, "-dist")
	}
	serve, err := startProc("volcano-serve", filepath.Join(binDir, "volcano-serve"), args, "serving on http://")
	if err != nil {
		return nil, err
	}
	c := &cluster{serve: serve}
	for i := 0; i < w.workers; i++ {
		wk, err := startProc(fmt.Sprintf("volcano-worker-%d", i), filepath.Join(binDir, "volcano-worker"),
			[]string{"-db", db, "-addr", "127.0.0.1:0", "-coordinator", serve.addr}, "dispatch on http://")
		if err != nil {
			c.stop()
			return nil, err
		}
		c.workers = append(c.workers, wk)
	}
	if w.workers > 0 {
		if err := waitWorkers(serve.addr, w.workers); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

func waitWorkers(addr string, want int) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/debug/workers")
		if err == nil {
			var v struct {
				Live int `json:"live"`
			}
			err = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err == nil && v.Live >= want {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("coordinator %s: %d workers not live after 30s", addr, want)
}

// usage is a process's resource reading at one instant.
type usage struct {
	cpu   time.Duration // user + system
	alloc float64       // volcano_go_alloc_bytes_total
	hwmKB int64         // peak resident set (VmHWM)
}

// clockTick is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

func (p *proc) usage() (usage, error) {
	var u usage
	pid := p.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	_, rest, _ := strings.Cut(string(stat), ") ")
	f := strings.Fields(rest)
	if len(f) < 13 {
		return u, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	u.cpu = time.Duration(ut+st) * clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			u.hwmKB, _ = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	m, err := scrape(p.addr)
	if err != nil {
		return u, err
	}
	u.alloc = m["volcano_go_alloc_bytes_total"]
	return u, nil
}

// clusterUsage sums the usage of every process of the cluster.
func (c *cluster) usage() (usage, error) {
	var total usage
	for _, p := range c.procs() {
		u, err := p.usage()
		if err != nil {
			return total, fmt.Errorf("%s: %w", p.name, err)
		}
		total.cpu += u.cpu
		total.alloc += u.alloc
		total.hwmKB += u.hwmKB
	}
	return total, nil
}

// scrape reads a /metrics page into a map from series (name plus label
// set, as printed) to value.
func scrape(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}
