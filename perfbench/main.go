// Command perfbench is lapushdb's serving benchmark. It boots the real
// lapushd handler stack over a durable store on loopback, seeds the
// chain / star / TPC-H dataset through /v1/ingest, drives one of three
// closed-loop workloads with a fixed, seed-determined request stream,
// verifies every answer outside the timed window, and prints its
// metrics; the last line of standard output is one JSON object.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload hot_point --seed 1 --seconds 12 --trace 0
//
// With --trace 1 it also replays the stream with spans around each
// layer's entry point and reports per-layer metrics instead of the
// end-to-end ones. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "workload: hot_point, cold_rank, ingest_mix, or all to run the three in turn")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same request stream")
	seconds := flag.Int("seconds", 12, "nominal run length; the stream length is fixed by it and the seed")
	trace := flag.Int("trace", 0, "1 replays the stream with per-layer spans and reports per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for stores, spans and build output")
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	}
	_, ok := workloads[names[0]]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s|all, --seconds >= 1 and --trace 0 or 1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	code := 0
	for _, name := range names {
		if !runOne(name, *seed, *seconds, *trace == 1, *dir) {
			code = 1
		}
	}
	os.Exit(code)
}

// runOne runs one workload and prints its result, reporting whether it
// completed with every answer and self-check correct.
func runOne(workload string, seed int64, seconds int, traced bool, dir string) bool {
	base, err := filepath.Abs(filepath.Join(dir, "runs", fmt.Sprintf("%s-seed%d-%d", workload, seed, os.Getpid())))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return false
	}
	cfg := config{workload: workload, build: workloads[workload], seed: seed, seconds: seconds, base: base}
	var out output
	if traced {
		out, err = runTraced(cfg, filepath.Join(dir, "trace"))
	} else {
		out, err = runPlain(cfg)
	}
	os.RemoveAll(base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", workload, err)
		return false
	}
	out.print()
	return out.Correct
}

// config is one invocation's settings.
type config struct {
	workload string
	build    func(d *dataset, seed int64, seconds int) (*plan, error)
	seed     int64
	seconds  int
	base     string // per-run scratch directory for stores
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line, plus the human-readable lines printed
// before it.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
	// mismatches counts failed answer checks; checksFailed records a
	// failed workload self-check.
	mismatches   int
	checksFailed bool
}

// mismatch notes a failed answer check (the first few in full).
func (o *output) mismatch(format string, args ...any) {
	if o.mismatches < 5 {
		o.note("mismatch: "+format, args...)
	}
	o.mismatches++
}

// selfCheck records a workload self-check.
func (o *output) selfCheck(ok bool, format string, args ...any) {
	if !ok {
		o.checksFailed = true
		o.note("self-check failed: "+format, args...)
	}
}

func (o *output) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *output) print() {
	for _, n := range o.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(o.Metrics))
	for k := range o.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-34s %14.6g %s\n", k, o.Metrics[k].Value, o.Metrics[k].Unit)
	}
	b, err := json.Marshal(o)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}
