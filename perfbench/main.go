// Command perfbench is the repository's end-to-end benchmark. It boots
// an in-process cluster of durable nodes (one FileJournal per node,
// loopback TCP between nodes) and one gateway, drives a seeded workload
// through the gateway's handler, checks the outputs, and prints its
// metrics as one JSON line.
//
//	bash perfbench/run.sh --workload rejoin --seed 1 --seconds 10 --trace 0
//
// run.sh builds this package and runs it from the repository root; data
// dirs and span files go under .bench_build/perfbench (--out). With
// --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it runs the same workload with every seam wrapped and
// timed, and prints the per-layer metrics instead. Any correctness
// violation exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runLimit is how long a run may take: its measured phases plus 160 s
// for set-up, kill cycles and checks, so that with run.sh's build a run
// ends within 180 s at --seconds 10.
func runLimit(seconds int) time.Duration {
	return time.Duration(seconds)*time.Second + 160*time.Second
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: sharded-transfer or rejoin")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same requests")
	seconds := fs.Int("seconds", 10, "length of the measured load phases")
	traced := fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for data dirs and span files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload <name>, --seconds >= 1 and --trace 0|1:", err)
		os.Exit(2)
	}
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, traced: *traced == 1, out: *out,
		deadline: time.Now().Add(runLimit(*seconds))}
	// A run must end within its time limit; past it, give up loudly
	// rather than print a result late.
	time.AfterFunc(time.Until(cfg.deadline), func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit; giving up")
		os.Exit(1)
	})
	rep, err := runBenchmark(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	human, _ := json.Marshal(rep.report)
	fmt.Println(string(human))
	line, _ := json.Marshal(rep.result)
	fmt.Println(string(line))
	if !rep.result.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness violations:")
		for _, v := range rep.violations {
			fmt.Fprintln(os.Stderr, "  "+v)
		}
		os.Exit(1)
	}
}
