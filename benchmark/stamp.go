package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// stamp records where and on what a result was measured, so two result
// files can be told comparable or not before anyone compares them.
type stamp struct {
	Commit           string            `json:"commit"`
	GoVersion        string            `json:"go_version"`
	OS               string            `json:"os"`
	Kernel           string            `json:"kernel"`
	CPUModel         string            `json:"cpu_model"`
	NProc            int               `json:"nproc"`
	DaemonGOMAXPROCS int               `json:"daemon_gomaxprocs"`
	RmemMax          int               `json:"rmem_max"`
	LoadAverage      float64           `json:"load_average_at_start"`
	Noisy            bool              `json:"noisy"`
	Pacing           string            `json:"pacing"`
	CorpusHashes     map[string]string `json:"corpus_hashes"`
}

func firstLine(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// takeStamp is called before the first daemon starts, so the load average
// is that of the machine, not of the benchmark.
func takeStamp(root string) stamp {
	s := stamp{
		Commit:           "unknown",
		GoVersion:        runtime.Version(),
		OS:               runtime.GOOS + "/" + runtime.GOARCH,
		Kernel:           firstLine("/proc/sys/kernel/osrelease"),
		CPUModel:         cpuModel(),
		NProc:            runtime.NumCPU(),
		DaemonGOMAXPROCS: runtime.NumCPU(),
		RmemMax:          readRmemMax(),
		CorpusHashes:     make(map[string]string),
	}
	// The daemon inherits this process's environment.
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		s.DaemonGOMAXPROCS = n
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
	}
	if f := strings.Fields(firstLine("/proc/loadavg")); len(f) > 0 {
		s.LoadAverage, _ = strconv.ParseFloat(f[0], 64)
	}
	s.Noisy = s.LoadAverage > float64(s.NProc)
	return s
}
