package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// provenance describes the host, toolchain, code and inputs of a run.
// Checkouts need not be git repositories, so the code is identified both
// by its commit (when git can tell) and by a digest of its Go sources.
func provenance(o options) map[string]any {
	return map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commit(),
		"source_sha256": sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit returns the HEAD commit when the working directory is the top
// of a git work tree, and "unknown" otherwise (an enclosing repository's
// commit would name other code).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	lines := strings.Fields(string(out))
	wd, err := os.Getwd()
	if err != nil || len(lines) != 2 || filepath.Clean(lines[0]) != filepath.Clean(wd) {
		return "unknown"
	}
	return lines[1]
}

// sourceDigest hashes the path and contents of every .go, go.mod and
// go.sum file under root, skipping hidden directories (build output).
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// stealSeconds is the CPU time stolen from this guest, summed over its
// CPUs, from /proc/stat (0 where unavailable).
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	first, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(first) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}
