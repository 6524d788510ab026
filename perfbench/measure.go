package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// windows is how many consecutive parts the timed loop is split into.
// Each ends on whole cycles. The end-to-end figures come from the half
// of them in which the host stole the least CPU time from this machine:
// on a shared host, stolen time stretches wall-clock latency while the
// program's own CPU time per query stays put, so the selection measures
// the program rather than its neighbours. The choice depends only on
// /proc/stat, never on the figures being measured.
const windows = 6

// window is one part of the timed loop with the servers' resource use
// and the host's CPU accounting over it.
type window struct {
	samples []sample
	wall    time.Duration
	cpu     time.Duration // servers' user+system time
	alloc   float64       // servers' allocated bytes
	stolen  float64       // steal ticks, all CPUs
	ticks   float64       // all ticks, all CPUs
	hwmKB   int64         // servers' peak resident set, last window only
}

// measure runs the timed loop as consecutive windows of d/windows each.
func measure(cl *cluster, l *loop, d time.Duration, traced bool) ([]window, error) {
	var wins []window
	for i := 0; i < windows; i++ {
		u0, err := cl.usage()
		if err != nil {
			return nil, err
		}
		s0, t0, err := cpuTicks()
		if err != nil {
			return nil, err
		}
		samples, wall := l.run(d/windows, traced)
		u1, err := cl.usage()
		if err != nil {
			return nil, err
		}
		s1, t1, err := cpuTicks()
		if err != nil {
			return nil, err
		}
		win := window{wall: wall, cpu: u1.cpu - u0.cpu, alloc: u1.alloc - u0.alloc, stolen: s1 - s0, ticks: t1 - t0}
		for _, cs := range samples {
			win.samples = append(win.samples, cs...)
		}
		wins = append(wins, win)
	}
	// Peak memory is a high-water mark; the last reading covers the run.
	u, err := cl.usage()
	if err != nil {
		return nil, err
	}
	wins[len(wins)-1].hwmKB = u.hwmKB
	return wins, nil
}

// endToEnd computes the end-to-end figures over the least-stolen half of
// the windows.
func endToEnd(wins []window) map[string]metric {
	quiet := append([]window(nil), wins...)
	sort.SliceStable(quiet, func(i, j int) bool {
		return ratio(quiet[i].stolen, quiet[i].ticks) < ratio(quiet[j].stolen, quiet[j].ticks)
	})
	quiet = quiet[:(len(quiet)+1)/2]
	var lat []time.Duration
	var wall, cpu time.Duration
	var alloc float64
	for _, w := range quiet {
		for _, s := range w.samples {
			if s.ok {
				lat = append(lat, s.latency)
			}
		}
		wall += w.wall
		cpu += w.cpu
		alloc += w.alloc
	}
	ok := float64(len(lat))
	lat = sortedDurations(lat)
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	set("qps", "1/s", ok/wall.Seconds())
	set("p50_ms", "ms", ms(percentile(lat, 50)))
	set("p90_ms", "ms", ms(percentile(lat, 90)))
	set("cpu_ms_per_query", "ms", ratio(ms(cpu), ok))
	set("alloc_kb_per_query", "KiB", ratio(alloc/1024, ok))
	set("max_rss_mb", "MiB", float64(wins[len(wins)-1].hwmKB)/1024)
	return m
}

// cpuTicks reads the host-wide steal and total tick counts from the
// first line of /proc/stat.
func cpuTicks() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}
