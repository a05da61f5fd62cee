package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads builds each named traffic mix. README.md gives the reason
// for each.
var workloads = map[string]func(d *dataset, seed int64, seconds int) (*plan, error){
	"hot_point":  buildHot,
	"cold_rank":  buildCold,
	"ingest_mix": buildIngest,
}

func workloadNames() []string {
	var names []string
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// lane is one request stream. ids name each request's identity for
// verification: requests with the same id must get the same answer.
type lane struct {
	name string
	reqs []*request
	ids  []int
}

// plan is everything one run sends, fixed by the seed and --seconds.
type plan struct {
	d     *dataset
	warm  []lane // the warm-up pass, part of set-up
	lanes []lane // the timed window; runLanes sends the lanes in turn
	// distinct lists the requests to replay and verify, by id.
	distinct map[int]*request
	// writes counts the write batches the plan sends after seeding.
	writes int
	// tail is a fixed run of write batches sent after the window has been
	// verified, on workloads whose window holds no writes: it gives
	// write_p50_ms and write_p99_ms there.
	tail []request
	// procs is the GOMAXPROCS the whole run uses; 0 keeps the default.
	procs int
	// selfCheck checks the workload's claim about its window from exact
	// counts.
	selfCheck func(w *window, out *output)
}

// Stream lengths: nominal rates times --seconds, with floors that keep
// at least 1000 latency samples per percentile set and, on ingest_mix,
// at least two checkpoints inside the window.
const (
	hotRate    = 8000 // requests per nominal second
	coldRate   = 160
	ingestRate = 500 // write batches per nominal second; reads match
	tailWrites = 2000
	// windowRounds is the number of equal rounds the window is split
	// into; ops_per_s is the median round's rate.
	windowRounds = 20
)

func buildHot(d *dataset, seed int64, seconds int) (*plan, error) {
	pool := hotPool()
	n := max(hotRate*seconds, 5000)
	// One client on one P: with a second client and a second P, most of
	// a cached request's time went to waking goroutines across CPUs, and
	// that cost follows the host's load, not the program (README.md).
	p := &plan{d: d, distinct: map[int]*request{}, procs: 1, tail: writeStream(d, seed, tailWrites)}
	warm := lane{name: "warm"}
	for i := range pool {
		p.distinct[i] = &pool[i]
		warm.reqs = append(warm.reqs, &pool[i])
		warm.ids = append(warm.ids, i)
	}
	timed := lane{name: "query"}
	for _, g := range hotStream(seed, pool, n) {
		timed.reqs = append(timed.reqs, &pool[g])
		timed.ids = append(timed.ids, g)
	}
	p.warm, p.lanes = []lane{warm}, []lane{timed}
	p.selfCheck = func(w *window, out *output) {
		hits, misses := w.delta(resultHits), w.delta(resultMisses)
		out.selfCheck(misses == 0 && hits == float64(n), "hot_point had %v result-cache hits and %v misses for %d requests, want only hits", hits, misses, n)
	}
	return p, nil
}

// The server's result-cache counters on /metrics.
const (
	resultHits   = "lapushd_result_cache_hits_total"
	resultMisses = "lapushd_result_cache_misses_total"
)

const coldWarm = 20

func buildCold(d *dataset, seed int64, seconds int) (*plan, error) {
	n := max(coldRate*seconds, 1000)
	reqs, err := coldStream(seed, coldWarm+n)
	if err != nil {
		return nil, err
	}
	p := &plan{d: d, distinct: map[int]*request{}, tail: writeStream(d, seed, tailWrites)}
	warm, timed := lane{name: "warm"}, lane{name: "query"}
	for i := range reqs {
		l := &timed
		if i < coldWarm {
			l = &warm
		}
		l.reqs = append(l.reqs, &reqs[i])
		l.ids = append(l.ids, i)
		p.distinct[i] = &reqs[i]
	}
	p.warm, p.lanes = []lane{warm}, []lane{timed}
	p.selfCheck = func(w *window, out *output) {
		hits := w.delta(resultHits)
		out.selfCheck(hits == 0, "cold_rank had %v result-cache hits, want 0", hits)
	}
	return p, nil
}

const ingestWarm = 32

func buildIngest(d *dataset, seed int64, seconds int) (*plan, error) {
	n := max(ingestRate*seconds, 1000)
	writes := writeStream(d, seed, ingestWarm+n)
	reads := readStream(seed, ingestWarm+n)
	// The writer and the reader take turns on one client, so every read
	// follows a commit and the interleaving, and with it the work, is the
	// same in every run.
	p := &plan{d: d, writes: len(writes)}
	ww, wr := lane{name: "write"}, lane{name: "read"}
	tw, tr := lane{name: "write"}, lane{name: "read"}
	for i := range writes {
		w, r := &tw, &tr
		if i < ingestWarm {
			w, r = &ww, &wr
		}
		w.reqs, w.ids = append(w.reqs, &writes[i]), append(w.ids, i)
		r.reqs, r.ids = append(r.reqs, &reads[i]), append(r.ids, i)
	}
	p.warm, p.lanes = []lane{ww, wr}, []lane{tw, tr}
	p.selfCheck = func(w *window, out *output) {
		first := uint64(len(d.batches)) + ingestWarm + 1
		for i, v := range w.versions {
			if v != first+uint64(i) {
				out.selfCheck(false, "write %d published version %d, want %d", i, v, first+uint64(i))
				break
			}
		}
		ckpts := w.ckptAfter - w.ckptBefore
		out.selfCheck(ckpts >= 2, "ingest_mix window held %d checkpoints, want >= 2", ckpts)
	}
	return p, nil
}

// seedData sends the dataset through /v1/ingest.
func seedData(n *node, d *dataset) error {
	var buf bytes.Buffer
	for _, muts := range d.batches {
		req := writeRequest(muts)
		res, body := n.do(context.Background(), &req, -1, &buf)
		if res.err != nil || res.status != http.StatusOK {
			return fmt.Errorf("seed ingest: status %d: %v %s", res.status, res.err, truncate(body))
		}
	}
	return nil
}

func truncate(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// laneResults holds one lane's results, aligned with its requests.
type laneResults struct {
	lane
	out []result
}

// runLanes runs the lanes, which have equal lengths, from one client,
// round by round: in each round it sends the lanes' next len/rounds
// requests in turn, request i of every lane before request i+1 of any.
// It returns each round's duration.
func runLanes(n *node, lanes []lane, rounds int, after func(l, i int, res *result, body []byte)) ([]laneResults, []time.Duration) {
	out := make([]laneResults, len(lanes))
	for li, l := range lanes {
		out[li] = laneResults{lane: l, out: make([]result, len(l.reqs))}
	}
	var durs []time.Duration
	var buf bytes.Buffer
	for r := 0; r < rounds; r++ {
		begin := time.Now()
		lo, hi := r*len(lanes[0].reqs)/rounds, (r+1)*len(lanes[0].reqs)/rounds
		for i := lo; i < hi; i++ {
			for li, l := range lanes {
				res, body := n.do(context.Background(), l.reqs[i], requestID(li, i), &buf)
				if after != nil {
					after(li, i, &res, body)
				}
				out[li].out[i] = res
			}
		}
		durs = append(durs, time.Since(begin))
	}
	return out, durs
}

// requestID numbers request i of lane l uniquely within a run.
func requestID(l, i int) int { return l<<24 | i }

// runtimeSnapshot reads the process-wide runtime counters the metrics
// are deltas of.
type runtimeSnapshot struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
	pauseNs              uint64
	numGC                uint32
	// procCPU is the process's user plus system CPU time.
	procCPU time.Duration
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeSnapshot {
	metrics.Read(runtimeSamples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero on failure; only a note uses it
	return runtimeSnapshot{
		procCPU:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: runtimeSamples[0].Value.Uint64(),
		gcCycles:   runtimeSamples[1].Value.Uint64(),
		gcCPU:      runtimeSamples[2].Value.Float64(),
		totalCPU:   runtimeSamples[3].Value.Float64(),
		pauseNs:    ms.PauseTotalNs,
		numGC:      ms.NumGC,
	}
}

// scrape reads the server's unlabelled Prometheus counters.
func scrape(n *node) (map[string]float64, error) {
	resp, err := n.client.Get(n.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

// setUp takes one node from an empty directory to ready: open the
// store, seed the data, and run the warm-up pass.
func setUp(dir string, p *plan, wrap func(http.Handler) http.Handler, rt func(http.RoundTripper) http.RoundTripper) (*node, time.Duration, error) {
	// Start every set-up from the same heap: without this, the garbage of
	// an earlier set-up is collected at a timing-dependent point of this
	// one.
	runtime.GC()
	begin := time.Now()
	n, err := boot(dir, wrap, rt)
	if err != nil {
		return nil, 0, err
	}
	err = seedData(n, p.d)
	if err == nil {
		var warm []laneResults
		warm, _ = runLanes(n, p.warm, 1, nil)
		err = checkStatuses(warm)
	}
	if err != nil {
		n.close()
		return nil, 0, err
	}
	return n, time.Since(begin), nil
}

func checkStatuses(ls []laneResults) error {
	for _, l := range ls {
		for i, r := range l.out {
			if r.err != nil || r.status != http.StatusOK {
				return fmt.Errorf("%s request %d: status %d: %v", l.name, l.ids[i], r.status, r.err)
			}
		}
	}
	return nil
}
