package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// hostStamp identifies the machine a result came from: wall-clock
// numbers compare only against runs with the same stamp.
func hostStamp() map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// cpuModel reads the CPU model name on Linux; "unknown" elsewhere.
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
