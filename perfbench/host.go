package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/blas"
)

// hostInfo is the host block every result carries: the facts a number
// from this benchmark cannot be read without.
type hostInfo struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	BLASThreads int     `json:"blas_threads"`
	LLCBytes    int64   `json:"llc_bytes"`
	RAMBytes    int64   `json:"ram_bytes"`
	GoVersion   string  `json:"go_version"`
	TriadGBs    float64 `json:"triad_gbs"`
	TriadBytes  int64   `json:"triad_bytes"`
}

// probeHost fills the host block, including one STREAM-style triad
// measurement on arrays that together are at least 4x the last-level
// cache, so the figure is a memory bandwidth and not a cache bandwidth.
func probeHost() hostInfo {
	h := hostInfo{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		BLASThreads: blas.Threads(),
		LLCBytes:    lastLevelCache(),
		RAMBytes:    memTotal(),
		GoVersion:   runtime.Version(),
	}
	h.TriadGBs, h.TriadBytes = triad(h.LLCBytes)
	return h
}

// lastLevelCache reads the size of the highest-level cache cpu0 reports,
// 0 when sysfs does not say.
func lastLevelCache() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	bestLevel, best := 0, int64(0)
	for _, d := range dirs {
		level, err1 := readInt(filepath.Join(d, "level"))
		size, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		if b := parseSize(strings.TrimSpace(string(size))); level > bestLevel && b > 0 {
			bestLevel, best = level, b
		}
	}
	return best
}

// parseSize parses sysfs cache sizes such as "107520K" or "2M".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

func readInt(path string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(strings.TrimSpace(string(b)))
}

// memTotal reads MemTotal from /proc/meminfo, 0 when unavailable.
func memTotal() int64 {
	f, err := os.Open("/proc/meminfo")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kb int64
		if _, err := fmt.Sscanf(sc.Text(), "MemTotal: %d kB", &kb); err == nil {
			return kb << 10
		}
	}
	return 0
}

// triadFloorBytes is the working set used when the LLC size is unknown.
const triadFloorBytes = 420 << 20

// triad runs a[i] = b[i] + s*c[i] on one goroutine over three float64
// arrays totalling at least 4x llc and returns the median rate of five
// timed passes, counting 24 bytes per element as STREAM does.
func triad(llc int64) (gbs float64, bytes int64) {
	total := max(4*llc, triadFloorBytes)
	n := int(total/3/8) + 1
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	const s = 3.0
	rates := make([]float64, 0, 5)
	for rep := 0; rep < 6; rep++ {
		t0 := time.Now()
		for i := range a {
			a[i] = b[i] + s*c[i]
		}
		if rep > 0 { // the first pass faults pages in
			rates = append(rates, float64(24*n)/time.Since(t0).Seconds()/1e9)
		}
	}
	return percentile(rates, 50), int64(24 * n)
}
