package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostTag records where and on what code a result was measured. Results
// compare only when everything but the commit matches.
type hostTag struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentHost(root string) hostTag {
	h := hostTag{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	h.Commit = sourceDigest(root)
	return h
}

// sourceDigest names the code under test by a hash of the module's Go
// sources and module files, so a checkout that is not a git repository
// still identifies its commit. The build directory is skipped.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// sameHost reports whether two results were measured on comparable
// hosts, and why not.
func sameHost(a, b hostTag) (bool, string) {
	switch {
	case a.CPU != b.CPU:
		return false, fmt.Sprintf("cpu %q vs %q", a.CPU, b.CPU)
	case a.NProc != b.NProc:
		return false, fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return false, fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GoVersion != b.GoVersion:
		return false, fmt.Sprintf("go %s vs %s", a.GoVersion, b.GoVersion)
	}
	return true, ""
}

// savedResult is what a run writes to its results directory.
type savedResult struct {
	Host     hostTag  `json:"host"`
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  int      `json:"seconds"`
	Trace    bool     `json:"trace"`
	Result   result   `json:"result"`
	Probes   []string `json:"probe_errors"`
}

func loadResult(path string) (savedResult, error) {
	var r savedResult
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// errRefused marks a comparison between results from different hosts:
// neither a pass nor a fail.
var errRefused = fmt.Errorf("comparison refused")

// compare prints the change of every metric the two results share, from
// a (the base) to b. Results from different hosts or workloads are
// refused.
func compare(out io.Writer, a, b savedResult) error {
	if ok, why := sameHost(a.Host, b.Host); !ok {
		return fmt.Errorf("%w: results come from different hosts (%s)", errRefused, why)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("%w: workload %s (trace %v) vs %s (trace %v)", errRefused, a.Workload, a.Trace, b.Workload, b.Trace)
	}
	var names []string
	for n := range a.Result.Metrics {
		if _, ok := b.Result.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s: %s -> %s\n", a.Workload, a.Host.Commit, b.Host.Commit)
	for _, n := range names {
		x, y := a.Result.Metrics[n], b.Result.Metrics[n]
		fmt.Fprintf(out, "  %-32s %14.4f -> %14.4f %-6s (%+.1f%%)\n", n, x.Value, y.Value, x.Unit, 100*ratio(y.Value-x.Value, x.Value))
	}
	return nil
}
