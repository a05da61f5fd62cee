package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lapushdb"
	"lapushdb/internal/store"
)

// The traced run replays the same stream with spans recorded from the
// benchmark's own code: a client RoundTripper wrapper, an http.Handler
// wrapper around Server.ServeHTTP, and timed direct calls into each
// library layer's entry point that the request reached (the response's
// cache labels say which), on the pinned store version. Writes are
// replayed with Store.Apply on a twin durable store. Nothing inside the
// program is instrumented.

// span is one timed interval. Spans of one request share Req; Parent
// is the ID of the span that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// byReq maps a request ID to its client span's ID.
	byReq map[int]int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), byReq: map[int]int64{}} }

func (t *tracer) add(parent int64, req int, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	if parent == 0 {
		t.byReq[req] = id
	}
}

func (t *tracer) root(req int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byReq[req]
}

func headerID(h http.Header) int {
	id, err := strconv.Atoi(h.Get(requestIDHeader))
	if err != nil {
		return -1
	}
	return id
}

// transport wraps the client transport: the client span runs from the
// request being sent until its body has been read and closed.
func (t *tracer) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		start := time.Now()
		resp, err := base.RoundTrip(r)
		if err != nil {
			return nil, err
		}
		id := headerID(r.Header)
		resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { t.add(0, id, "client", start, time.Now()) }}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// handler wraps Server.ServeHTTP. Server spans are recorded under the
// request's ID and joined to the client span after the window.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(-1, headerID(r.Header), "server", start, time.Now())
	})
}

// layerStats accumulates the direct-call counts of the traced window.
type layerStats struct {
	mu                         sync.Mutex
	prepares, plans            int
	evals                      [3]int // by parallelism 1 and 2
	evalNs                     [3]int64
	partitions                 int64
	profileRows, profileAnswer int64
	batchShared, batchTotal    int64
	anytimes, anytimeConverged int
	mcSamples, anytimeAnswers  int64
	plansEvaluated, plansTotal int64
	applyNs                    []int64
	checkpointApplyNs          []int64
	walBytes, walMutations     int64
	checkpoints                int64
}

// labels are the cache fields of a /v1/query or /v1/rank_batch answer.
type labels struct {
	Cache       string `json:"cache"`
	ResultCache string `json:"result_cache"`
	Results     []struct {
		Cache string `json:"cache"`
	} `json:"results"`
}

var profileRows = regexp.MustCompile(`rows=(\d+)`)

// replayLayers times the library entry points request req reached, on
// version v. It runs on the client goroutine after the response.
func (t *tracer) replayLayers(ls *layerStats, v *store.Version, twin *store.Store, req *request, id int, body []byte) error {
	parent := t.root(id)
	timed := func(name string, f func() error) error {
		start := time.Now()
		err := f()
		t.add(parent, id, name, start, time.Now())
		return err
	}
	if req.kind == kindWrite {
		return applyTwin(twin, t, ls, parent, id, req.muts)
	}
	var lab labels
	if err := json.Unmarshal(body, &lab); err != nil {
		return err
	}
	ctx := context.Background()
	db := v.DB
	// prepare times PrepareContext where the server's plan cache missed;
	// after a plan-cache hit the statement is rebuilt untimed, since the
	// engine call needs one.
	prepare := func(q string, planMiss bool) (*lapushdb.Prepared, error) {
		if !planMiss {
			return db.PrepareContext(ctx, q, &lapushdb.Options{})
		}
		var p *lapushdb.Prepared
		err := timed("core.prepare", func() (err error) {
			p, err = db.PrepareContext(ctx, q, &lapushdb.Options{})
			return err
		})
		if err == nil {
			ls.mu.Lock()
			ls.prepares++
			ls.plans += p.NumPlans()
			ls.mu.Unlock()
		}
		return p, err
	}
	for _, q := range req.queries {
		if err := timed("cq.normalize", func() error { _, err := db.NormalizeQuery(q); return err }); err != nil {
			return err
		}
	}
	switch req.kind {
	case kindQuery:
		if lab.ResultCache != "miss" {
			return nil
		}
		p, err := prepare(req.queries[0], lab.Cache == "miss")
		if err != nil {
			return err
		}
		w := max(req.parallelism, 1)
		stats := &lapushdb.RankStats{}
		start := time.Now()
		answers, err := db.RankPrepared(ctx, p, &lapushdb.Options{Workers: w, Stats: stats})
		end := time.Now()
		t.add(parent, id, "engine.rank", start, end)
		if err != nil {
			return err
		}
		prof, err := db.Profile(req.queries[0])
		if err != nil {
			return err
		}
		var rows int64
		for _, m := range profileRows.FindAllStringSubmatch(prof, -1) {
			r, _ := strconv.ParseInt(m[1], 10, 64)
			rows += r
		}
		ls.mu.Lock()
		ls.evals[w]++
		ls.evalNs[w] += int64(end.Sub(start))
		ls.partitions += stats.Partitions
		ls.profileRows += rows
		ls.profileAnswer += int64(len(answers))
		ls.mu.Unlock()
	case kindAnytime:
		if lab.ResultCache != "miss" {
			return nil
		}
		p, err := prepare(req.queries[0], lab.Cache == "miss")
		if err != nil {
			return err
		}
		var res *lapushdb.AnytimeResult
		if err := timed("anytime.rank", func() (err error) {
			res, err = db.RankAnytimePrepared(ctx, p, &lapushdb.AnytimeOptions{Epsilon: req.eps})
			return err
		}); err != nil {
			return err
		}
		ls.mu.Lock()
		ls.anytimes++
		if res.Converged {
			ls.anytimeConverged++
		}
		ls.mcSamples += int64(res.MCSamples)
		ls.anytimeAnswers += int64(len(res.Answers))
		ls.plansEvaluated += int64(res.PlansEvaluated)
		ls.plansTotal += int64(res.PlansTotal)
		ls.mu.Unlock()
	case kindBatch:
		var missed []*lapushdb.Prepared
		for i, q := range req.queries {
			if i < len(lab.Results) && lab.Results[i].Cache == "miss" {
				// A batch slot reports only its result-cache label; a
				// miss there also missed the plan cache on every
				// workload here, as batch queries never repeat.
				p, err := prepare(q, true)
				if err != nil {
					return err
				}
				missed = append(missed, p)
			}
		}
		if len(missed) == 0 {
			return nil
		}
		var bs lapushdb.BatchStats
		if err := timed("engine.batch", func() error {
			b := db.NewBatch(&lapushdb.Options{})
			for _, p := range missed {
				if _, err := b.RankPrepared(ctx, p); err != nil {
					return err
				}
			}
			bs = b.Stats()
			return nil
		}); err != nil {
			return err
		}
		ls.mu.Lock()
		ls.batchShared += bs.SharedSubplanHits
		ls.batchTotal += bs.SharedSubplanHits + bs.SharedSubplanMisses
		ls.mu.Unlock()
	}
	return nil
}

// applyTwin times Store.Apply of one batch on the twin store, a second
// durable store fed the same batches as the served one. t is nil for
// batches applied outside the window.
func applyTwin(tw *store.Store, t *tracer, ls *layerStats, parent int64, id int, muts []store.Mutation) error {
	before := tw.Stats()
	start := time.Now()
	_, err := tw.Apply(muts)
	end := time.Now()
	if t != nil {
		t.add(parent, id, "store.apply", start, end)
	}
	if err != nil {
		return fmt.Errorf("twin apply: %w", err)
	}
	after := tw.Stats()
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.applyNs = append(ls.applyNs, int64(end.Sub(start)))
	if after.Checkpoints > before.Checkpoints {
		ls.checkpoints += after.Checkpoints - before.Checkpoints
		ls.checkpointApplyNs = append(ls.checkpointApplyNs, int64(end.Sub(start)))
	} else {
		ls.walBytes += after.WALBytes - before.WALBytes
		ls.walMutations += int64(len(muts))
	}
	return nil
}

// runTraced replays the stream twice on fresh stores: untraced, for the
// runtime metrics and as the base of the tracing overhead, then traced.
func runTraced(cfg config, traceDir string) (output, error) {
	p, err := cfg.build(newDataset(), cfg.seed, cfg.seconds)
	if err != nil {
		return output{}, err
	}
	defer pinProcs(p.procs)()
	n, _, err := setUp(filepath.Join(cfg.base, "plain"), p, nil, nil)
	if err != nil {
		return output{}, err
	}
	plain, err := measure(n, p, nil)
	n.close()
	os.RemoveAll(n.dir)
	if err != nil {
		return output{}, err
	}
	if err := checkStatuses(plain.lanes); err != nil {
		return output{}, err
	}

	// The twin store takes the seeding and the warm-up writes first. On
	// hot_point and cold_rank, whose windows hold no writes, the store
	// metrics describe those seeding batches.
	twinDir := filepath.Join(cfg.base, "twin")
	if err := os.MkdirAll(twinDir, 0o755); err != nil {
		return output{}, err
	}
	twin, err := store.Open(nil, store.Options{Dir: twinDir, Fsync: store.FsyncAlways, CheckpointEvery: 256})
	if err != nil {
		return output{}, err
	}
	defer twin.Close()
	seedStats, windowStats := &layerStats{}, &layerStats{}
	for _, b := range p.d.batches {
		if err := applyTwin(twin, nil, seedStats, 0, -1, b); err != nil {
			return output{}, err
		}
	}
	for _, l := range p.warm {
		if l.name == "write" {
			for _, r := range l.reqs {
				if err := applyTwin(twin, nil, seedStats, 0, -1, r.muts); err != nil {
					return output{}, err
				}
			}
		}
	}

	tr := newTracer()
	n, _, err = setUp(filepath.Join(cfg.base, "traced"), p, tr.handler, tr.transport)
	if err != nil {
		return output{}, err
	}
	tr.reset()
	var replayErr atomic.Value
	traced, err := measure(n, p, func(l, i int, res *result, body []byte) {
		if res.status != http.StatusOK {
			return
		}
		v := n.st.Current()
		if err := tr.replayLayers(windowStats, v, twin, p.lanes[l].reqs[i], requestID(l, i), body); err != nil {
			replayErr.CompareAndSwap(nil, err)
		}
	})
	if err != nil {
		n.close()
		return output{}, err
	}
	spans := tr.windowSpans()
	if e := replayErr.Load(); e != nil {
		n.close()
		return output{}, fmt.Errorf("traced replay: %v", e)
	}
	out := output{Metrics: map[string]metric{}}
	failed, err := verifyWindow(n, p, traced, &out)
	if err != nil {
		n.close()
		return output{}, err
	}
	if err := n.close(); err != nil {
		return output{}, err
	}
	out.Attempted, out.Failed = traced.ops(), failed
	out.Correct = failed == 0 && !out.checksFailed

	ls := windowStats
	if len(ls.applyNs) == 0 {
		ls.applyNs, ls.checkpointApplyNs = seedStats.applyNs, seedStats.checkpointApplyNs
		ls.walBytes, ls.walMutations, ls.checkpoints = seedStats.walBytes, seedStats.walMutations, seedStats.checkpoints
	}
	layerMetrics(&out, spans, ls, plain, traced)
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.spans.json", cfg.workload, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return output{}, err
	}
	out.note("spans: %d written to %s", len(spans), path)
	return out, nil
}

// reset drops the set-up's spans, so that the tracer holds only
// the timed window.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.byReq = t.spans[:0], map[int]int64{}
}

// windowSpans returns the spans recorded so far, the timed window's, with
// each server span joined to its request's client span and the spans
// of unnumbered requests (the /metrics scrapes) left out.
func (t *tracer) windowSpans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.Req < 0 {
			continue
		}
		if s.Parent == -1 {
			s.Parent = t.byReq[s.Req]
		}
		out = append(out, s)
	}
	return out
}

// writeSpans saves the spans as a JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	w.WriteString("[\n")
	for i, s := range spans {
		if i > 0 {
			w.WriteString(",")
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics derives the per-layer metrics from the traced window's
// spans and counts, and the runtime metrics from the untraced window.
func layerMetrics(out *output, spans []span, ls *layerStats, plain, traced *window) {
	type reqSpans struct{ client, server, lib int64 }
	reqs := map[int]*reqSpans{}
	self := map[string]int64{}
	count := map[string]int{}
	for _, s := range spans {
		r := reqs[s.Req]
		if r == nil {
			r = &reqSpans{}
			reqs[s.Req] = r
		}
		d := s.End - s.Start
		switch s.Name {
		case "client":
			r.client = d
		case "server":
			r.server = d
		default:
			r.lib += d
			self[s.Name] += d
			count[s.Name]++
		}
	}
	var client, server, lib int64
	paired := 0
	for _, r := range reqs {
		if r.client > 0 && r.server > 0 {
			client, server, lib = client+r.client, server+r.server, lib+r.lib
			paired++
		}
	}
	ops := float64(traced.ops())
	mean := func(name string) float64 {
		if count[name] == 0 {
			return 0
		}
		return float64(self[name]) / float64(count[name])
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	msf := func(ns float64) float64 { return ns / 1e6 }
	m := out.Metrics
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	set("transport.us_per_op", us(ratio(float64(client-server), float64(paired))), "us")
	set("server.serve_us_per_op", us(ratio(float64(server), float64(paired))), "us")
	set("server.self_us_per_op", us(ratio(float64(server-lib), float64(paired))), "us")
	var bytes int64
	rejected := 0
	for _, l := range traced.lanes {
		for _, r := range l.out {
			bytes += int64(r.size)
			if r.status != http.StatusOK {
				rejected++
			}
		}
	}
	set("server.response_kb_per_op", float64(bytes)/1024/ops, "KiB")
	ph, pm := traced.delta("lapushd_plan_cache_hits_total"), traced.delta("lapushd_plan_cache_misses_total")
	rh, rm := traced.delta(resultHits), traced.delta(resultMisses)
	set("server.plan_cache_hit_ratio", ratio(ph, ph+pm), "ratio")
	set("server.result_cache_hit_ratio", ratio(rh, rh+rm), "ratio")
	set("server.rejected_ops", traced.delta("lapushd_requests_rejected_total")+float64(rejected), "count")

	set("cq.normalize_us", us(mean("cq.normalize")), "us")
	set("core.prepare_us", us(mean("core.prepare")), "us")
	set("core.plans_per_query", ratio(float64(ls.plans), float64(ls.prepares)), "count")
	set("engine.eval_ms_w1", msf(ratio(float64(ls.evalNs[1]), float64(ls.evals[1]))), "ms")
	set("engine.eval_ms_w2", msf(ratio(float64(ls.evalNs[2]), float64(ls.evals[2]))), "ms")
	set("engine.partitions_per_query", ratio(float64(ls.partitions), float64(ls.evals[1]+ls.evals[2])), "count")
	set("engine.rows_per_answer", ratio(float64(ls.profileRows), float64(ls.profileAnswer)), "count")
	set("engine.batch_ms", msf(mean("engine.batch")), "ms")
	set("engine.batch_shared_hit_ratio", ratio(float64(ls.batchShared), float64(ls.batchTotal)), "ratio")
	set("anytime.ms", msf(mean("anytime.rank")), "ms")
	set("anytime.mc_samples_per_answer", ratio(float64(ls.mcSamples), float64(ls.anytimeAnswers)), "count")
	set("anytime.plans_evaluated_ratio", ratio(float64(ls.plansEvaluated), float64(ls.plansTotal)), "ratio")
	set("anytime.converged_ratio", ratio(float64(ls.anytimeConverged), float64(ls.anytimes)), "ratio")

	applies := make([]time.Duration, len(ls.applyNs))
	for i, d := range ls.applyNs {
		applies[i] = time.Duration(d)
	}
	var ckptNs int64
	for _, d := range ls.checkpointApplyNs {
		ckptNs += d
	}
	set("store.apply_ms_p50", ms(quantile(applies, 0.50)), "ms")
	set("store.apply_ms_p99", ms(quantile(applies, 0.99)), "ms")
	set("store.wal_bytes_per_mutation", ratio(float64(ls.walBytes), float64(ls.walMutations)), "B")
	set("store.checkpoints", float64(ls.checkpoints), "count")
	set("store.checkpoint_apply_ms", msf(ratio(float64(ckptNs), float64(len(ls.checkpointApplyNs)))), "ms")

	pops := float64(plain.ops())
	set("runtime.gc_per_kop", float64(plain.after.gcCycles-plain.before.gcCycles)/pops*1000, "count")
	set("runtime.gc_pause_ms", msf(ratio(float64(plain.after.pauseNs-plain.before.pauseNs), float64(plain.after.numGC-plain.before.numGC))), "ms")
	set("runtime.gc_cpu_fraction", ratio(plain.after.gcCPU-plain.before.gcCPU, plain.after.totalCPU-plain.before.totalCPU), "ratio")

	pp50 := quantile(plain.latencies("query", "read"), 0.5)
	tp50 := quantile(traced.latencies("query", "read"), 0.5)
	set("tracing.p50_ratio", ratio(float64(tp50), float64(pp50)), "ratio")
	out.note("tracing overhead: p50 %.4f ms traced vs %.4f ms untraced; %.1f vs %.1f ops/s",
		ms(tp50), ms(pp50), traced.opsPerSecond(), plain.opsPerSecond())
	out.note("self time per op (us): transport %.2f, server %.2f, %s",
		us(ratio(float64(client-server), ops)), us(ratio(float64(server-lib), ops)), selfTimes(self, ops))
}

func selfTimes(self map[string]int64, ops float64) string {
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	s := ""
	for i, k := range names {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s %.2f", k, float64(self[k])/ops/1e3)
	}
	return s
}
