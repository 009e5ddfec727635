package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp records where and how a result was produced, so a later run on
// another host or build can be told apart from a regression.
type stamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	SourceHash string `json:"source_sha256"`

	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Seconds       float64 `json:"seconds"`
	Clients       int     `json:"clients"`
	Tenants       int     `json:"tenants"`
	RowsPerTable  int     `json:"rows_per_table"`
	PoolBytes     int64   `json:"pool_bytes"`
	DataBytes     int64   `json:"data_bytes_after_load"`
	Layout        string  `json:"layout"`
	GroupCommit   bool    `json:"group_commit"`
	SyncLatencyUs float64 `json:"sync_latency_us"`
	ReadLatencyUs float64 `json:"read_latency_us"`
	// What the host's timers made of the read latency: a sleep of a few
	// microseconds can take a scheduler tick.
	ReadLatencyP50Us float64 `json:"read_latency_realised_p50_us"`
	ReadLatencyP99Us float64 `json:"read_latency_realised_p99_us"`
	RewriteCache     bool    `json:"rewrite_cache"`
	Setups           int     `json:"setups"`
	WarmupActions    int64   `json:"warmup_actions"`
	ClosedLoop       bool    `json:"closed_loop"`
	TracedWindowed   bool    `json:"traced"`
}

func hostStamp() stamp {
	return stamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA("."),
		SourceHash: sourceHash("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA resolves HEAD of a git checkout at root without running git;
// "none" when root is not a checkout (the benchmark also runs from
// exported source trees).
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and module file under root (hidden
// directories skipped), identifying the build where git cannot.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not change the build
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(p) + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
