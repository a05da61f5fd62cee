package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setups is how many times a plain run takes a store from an empty
// directory to ready; setup_s is their median.
const setups = 5

// window is what the timed part of one run left behind.
type window struct {
	lanes      []laneResults
	rounds     []time.Duration
	before     runtimeSnapshot
	after      runtimeSnapshot
	heapBytes  uint64
	srvBefore  map[string]float64
	srvAfter   map[string]float64
	ckptBefore int64
	ckptAfter  int64
	// versions holds the store version each acknowledged write reported.
	versions []uint64
}

// measure runs the plan's timed window on n. after, when non-nil, also
// runs on the client goroutine after each response (the traced run).
func measure(n *node, p *plan, after func(l, i int, res *result, body []byte)) (*window, error) {
	w := &window{}
	var err error
	if w.srvBefore, err = scrape(n); err != nil {
		return nil, err
	}
	w.ckptBefore = n.st.Stats().Checkpoints
	versions := make([][]uint64, len(p.lanes))
	for li, l := range p.lanes {
		if l.name == "write" {
			versions[li] = make([]uint64, len(l.reqs))
		}
	}
	hook := func(l, i int, res *result, body []byte) {
		if versions[l] != nil && res.status == http.StatusOK {
			var v struct {
				Version uint64 `json:"version"`
			}
			if json.Unmarshal(body, &v) == nil {
				versions[l][i] = v.Version
			}
		}
		if p.lanes[l].name == "read" {
			res.wellFormed = json.Valid(body)
		}
		if after != nil {
			after(l, i, res, body)
		}
	}
	runtime.GC()
	w.before = readRuntime()
	w.lanes, w.rounds = runLanes(n, p.lanes, windowRounds, hook)
	w.after = readRuntime()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	w.heapBytes = mem.HeapAlloc
	w.ckptAfter = n.st.Stats().Checkpoints
	if w.srvAfter, err = scrape(n); err != nil {
		return nil, err
	}
	for _, v := range versions {
		w.versions = append(w.versions, v...)
	}
	return w, nil
}

// ops is the number of requests the window sent.
func (w *window) ops() int {
	n := 0
	for _, l := range w.lanes {
		n += len(l.out)
	}
	return n
}

// latencies returns the durations of the named lanes' requests.
func (w *window) latencies(names ...string) []time.Duration {
	var out []time.Duration
	for _, l := range w.lanes {
		for _, nm := range names {
			if l.name == nm {
				for _, r := range l.out {
					out = append(out, r.dur)
				}
			}
		}
	}
	return out
}

func (w *window) delta(name string) float64 { return w.srvAfter[name] - w.srvBefore[name] }

// opsPerSecond is the median over rounds of the round's request rate.
func (w *window) opsPerSecond() float64 {
	rounds := len(w.rounds)
	rates := make([]float64, rounds)
	for r, d := range w.rounds {
		n := 0
		for _, l := range w.lanes {
			n += (r+1)*len(l.out)/rounds - r*len(l.out)/rounds
		}
		rates[r] = float64(n) / d.Seconds()
	}
	return median(rates)
}

// runPlain is an untraced run: set up `setups` times, keep the last
// node, run the timed window, then verify everything it answered.
func runPlain(cfg config) (output, error) {
	p, err := cfg.build(newDataset(), cfg.seed, cfg.seconds)
	if err != nil {
		return output{}, err
	}
	defer pinProcs(p.procs)()
	var (
		n          *node
		setupTimes []float64
	)
	for k := 0; k < setups; k++ {
		dir := filepath.Join(cfg.base, fmt.Sprintf("setup%d", k))
		nn, d, err := setUp(dir, p, nil, nil)
		if err != nil {
			return output{}, err
		}
		setupTimes = append(setupTimes, d.Seconds())
		if k < setups-1 {
			if err := nn.close(); err != nil {
				return output{}, err
			}
			os.RemoveAll(dir)
			continue
		}
		n = nn
	}
	w, err := measure(n, p, nil)
	if err != nil {
		n.close()
		return output{}, err
	}
	out := output{Metrics: map[string]metric{}}
	failed, err := verifyWindow(n, p, w, &out)
	if err != nil {
		n.close()
		return output{}, err
	}
	writeLat := w.latencies("write")
	out.Attempted = w.ops()
	if len(p.tail) > 0 {
		var tailFailed int
		writeLat, tailFailed = writeTail(n, p, &out)
		failed += tailFailed
		out.Attempted += len(p.tail)
	}
	out.Failed = failed
	out.Correct = failed == 0 && !out.checksFailed
	if err := n.close(); err != nil {
		return output{}, err
	}

	reads := w.latencies("query", "read")
	m := out.Metrics
	m["ops_per_s"] = metric{w.opsPerSecond(), "1/s"}
	m["p50_ms"] = metric{ms(quantile(reads, 0.50)), "ms"}
	m["p99_ms"] = metric{ms(quantile(reads, 0.99)), "ms"}
	m["write_p50_ms"] = metric{ms(quantile(writeLat, 0.50)), "ms"}
	m["write_p99_ms"] = metric{ms(quantile(writeLat, 0.99)), "ms"}
	m["alloc_kb_per_op"] = metric{float64(w.after.allocBytes-w.before.allocBytes) / 1024 / float64(w.ops()), "KiB"}
	m["heap_mb"] = metric{float64(w.heapBytes) / (1 << 20), "MiB"}
	m["setup_s"] = metric{median(setupTimes), "s"}
	out.note("workload %s seed %d: %d ops in %d rounds, %d failed (error_rate %.6f ratio)",
		cfg.workload, cfg.seed, out.Attempted, len(w.rounds), out.Failed, float64(out.Failed)/float64(out.Attempted))
	out.note("process cpu: %.4f ms per op", ms(w.after.procCPU-w.before.procCPU)/float64(w.ops()))
	out.note("samples: %d reads (p99 has %d beyond it), %d writes (p99 has %d beyond it), %d setups",
		len(reads), len(reads)/100, len(writeLat), len(writeLat)/100, len(setupTimes))
	if len(reads) < 1000 || len(writeLat) < 1000 {
		return output{}, fmt.Errorf("too few samples for p99: %d reads, %d writes", len(reads), len(writeLat))
	}
	return out, nil
}

// writeTail sends the plan's tail of write batches in order from one
// client, checks that each was acknowledged with the next version, and
// returns their latencies and the number that failed.
func writeTail(n *node, p *plan, out *output) ([]time.Duration, int) {
	// Start from a collected heap, as the window does, so that the
	// verification's garbage is not collected during the tail.
	runtime.GC()
	var buf bytes.Buffer
	lat := make([]time.Duration, 0, len(p.tail))
	next := n.st.Current().Seq + 1
	failed := 0
	for i := range p.tail {
		res, body := n.do(context.Background(), &p.tail[i], -1, &buf)
		var v struct {
			Version uint64 `json:"version"`
		}
		if res.err != nil || res.status != http.StatusOK || json.Unmarshal(body, &v) != nil || v.Version != next {
			failed++
			out.mismatch("tail write %d: status %d, err %v, version %d, want %d", i, res.status, res.err, v.Version, next)
		}
		next++
		lat = append(lat, res.dur)
	}
	return lat, failed
}

// pinProcs sets GOMAXPROCS to procs for a run, unless it is 0, and
// returns the function that restores it.
func pinProcs(procs int) func() {
	if procs == 0 {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(procs)
	return func() { runtime.GOMAXPROCS(prev) }
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
