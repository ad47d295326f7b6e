package main

import (
	"bufio"
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
	"syscall"
)

// host identifies where a result was measured. Results are comparable only
// when every field but Commit matches.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit identifies the code measured. A benchmark checkout carries no
	// git metadata, so it is a digest of the module's Go sources and
	// go.mod files.
	Commit   string `json:"commit"`
	LedgerFS string `json:"ledger_fs"`
}

func hostBlock(root, ledgerDir string) (host, error) {
	commit, err := sourceDigest(root)
	if err != nil {
		return host{}, err
	}
	return host{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		LedgerFS:   fsType(ledgerDir),
	}, nil
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

// fsMagic names the filesystems a ledger directory commonly sits on; the
// fsync cost the ledger metrics show depends on it.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x01021997: "9p",
	0x65735546: "fuse",
	0x6A656A63: "virtiofs",
	0x2FC12FC1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// sourceDigest hashes every .go, go.mod and go.sum file under root, in path
// order, skipping build output.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", rel)
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16], nil
}

// compareReports prints two reports' metrics side by side, and refuses
// when they were measured on different hosts.
func compareReports(pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	ha, hb := a.Host, b.Host
	ha.Commit, hb.Commit = "", ""
	if ha != hb {
		return fmt.Errorf("refusing to compare: host blocks differ (%+v vs %+v); numbers from different hosts are never compared", a.Host, b.Host)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Seconds != b.Seconds {
		return fmt.Errorf("refusing to compare: %s/trace%d/%ds vs %s/trace%d/%ds", a.Workload, a.Trace, a.Seconds, b.Workload, b.Trace, b.Seconds)
	}
	var names []string
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-36s %14s %14s %9s  unit\n", "metric", a.Host.Commit, b.Host.Commit, "b/a")
	for _, n := range names {
		ma, mb := a.Result.Metrics[n], b.Result.Metrics[n]
		ratio := "-"
		if ma.Value != 0 {
			ratio = fmt.Sprintf("%.3f", mb.Value/ma.Value)
		}
		fmt.Printf("%-36s %14.4g %14.4g %9s  %s\n", n, ma.Value, mb.Value, ratio, ma.Unit)
	}
	return nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func readCounts(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]float64
	return m, json.Unmarshal(data, &m)
}

func writeCounts(path string, m map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
