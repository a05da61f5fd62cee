package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"lapushdb"
	"lapushdb/internal/store"
)

// The response structs /v1/query and /v1/rank_batch were once encoded
// from with encoding/json. They define the wire format: the tests below
// pin the appender's bodies byte-equal to encoding/json output of these
// structs (SetEscapeHTML(false), trailing newline), and the other tests
// decode responses with them.

// intervalJSON is an anytime answer's probability interval.
type intervalJSON struct {
	Lower     float64 `json:"lower"`
	Upper     float64 `json:"upper"`
	Converged bool    `json:"converged"`
}

type answerJSON struct {
	Values   []string      `json:"values"`
	Score    float64       `json:"score"`
	Interval *intervalJSON `json:"interval,omitempty"`
}

type queryResponse struct {
	Answers     []answerJSON `json:"answers"`
	Count       int          `json:"count"`
	Method      string       `json:"method"`
	Safe        bool         `json:"safe"`
	Cache       string       `json:"cache"`
	ResultCache string       `json:"result_cache"`
	ElapsedMS   float64      `json:"elapsed_ms"`
	Partitions  int64        `json:"partitions"`

	Converged *bool    `json:"converged,omitempty"`
	Degraded  string   `json:"degraded,omitempty"`
	Width     *float64 `json:"width,omitempty"`
	Epsilon   *float64 `json:"epsilon,omitempty"`
}

type batchResultJSON struct {
	Answers []answerJSON `json:"answers,omitempty"`
	Count   int          `json:"count"`
	Safe    bool         `json:"safe"`
	Cache   string       `json:"cache,omitempty"`
	Error   *apiError    `json:"error,omitempty"`

	Converged *bool    `json:"converged,omitempty"`
	Degraded  string   `json:"degraded,omitempty"`
	Width     *float64 `json:"width,omitempty"`
}

type batchResponse struct {
	Results           []batchResultJSON `json:"results"`
	Count             int               `json:"count"`
	Version           uint64            `json:"version"`
	Fingerprint       string            `json:"fingerprint"`
	SharedSubplanHits int64             `json:"shared_subplan_hits"`
	ElapsedMS         float64           `json:"elapsed_ms"`
}

// oracleEncode is encoding/json as the server used it for responses.
func oracleEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

func mustOracle(t *testing.T, v any) []byte {
	t.Helper()
	b, err := oracleEncode(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// elapsedOf reads elapsed_ms back out of a response body, the one field
// that legitimately differs between otherwise identical responses.
func elapsedOf(t testing.TB, body []byte) float64 {
	t.Helper()
	var v struct {
		ElapsedMS float64 `json:"elapsed_ms"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, body)
	}
	return v.ElapsedMS
}

func checkBody(t testing.TB, what string, resp *http.Response, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: body differs from encoding/json\n got: %q\nwant: %q", what, got, want)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(got)) {
		t.Fatalf("%s: Content-Length %q for a %d-byte body", what, cl, len(got))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: Content-Type %q", what, ct)
	}
}

// oracleAnswers renders an entry's first top answers the way the
// server did before answers were memoized: a fresh slice, anytime
// convergence recomputed per answer against eps.
func oracleAnswers(c *cachedResult, top int, eps float64) []answerJSON {
	out := []answerJSON{}
	if c.anytime {
		for _, a := range c.intervals {
			out = append(out, answerJSON{Values: a.Values, Score: a.Upper,
				Interval: &intervalJSON{Lower: a.Lower, Upper: a.Upper, Converged: a.Upper-a.Lower <= eps}})
		}
	} else {
		for _, a := range c.answers {
			out = append(out, answerJSON{Values: a.Values, Score: a.Score})
		}
	}
	if top > 0 && top < len(out) {
		out = out[:top]
	}
	return out
}

// oracleAllConverged is whether every answer of c converged at eps.
func oracleAllConverged(c *cachedResult, eps float64) bool {
	for _, a := range c.intervals {
		if !(a.Upper-a.Lower <= eps) {
			return false
		}
	}
	return true
}

// Values that stress the string and float encoders: HTML characters
// (not escaped), quotes and backslashes, every short and long control
// escape, invalid UTF-8, U+2028/U+2029, DEL, multi-byte runes, a nil
// (null) and an empty values list.
var trickyValues = [][]string{
	{"plain"},
	{"<a&b>", `quote"back\slash`},
	{"ctl\x00\x01\x1f\b\f\n\r\t"},
	{"bad\xffutf8\xc3", "\xe2\x80"},
	{"sep\u2028\u2029", "del\x7f", "ünï", "日本"},
	nil,
	{},
}

var trickyScores = []float64{0.5, 1e-7, 1e-6, 9.99999e-7, 0, math.Copysign(0, -1), 5e-324, 1e21, 9.99e20, 123456789.125, 0.1 + 0.2, 1}

func trickyPoint() *cachedResult {
	c := &cachedResult{safe: true}
	for i, s := range trickyScores {
		c.answers = append(c.answers, lapushdb.Answer{Values: trickyValues[i%len(trickyValues)], Score: s})
	}
	return c
}

func trickyAnytime() *cachedResult {
	res := &lapushdb.AnytimeResult{Width: 0.25}
	gaps := []float64{0, 0.05, 0.1, 0.2, 0.25, 1e-9}
	for i, g := range gaps {
		lower := 0.5 - float64(i)*0.07
		res.Answers = append(res.Answers, lapushdb.IntervalAnswer{
			Values: trickyValues[i%len(trickyValues)], Lower: lower, Upper: lower + g})
	}
	return anytimeEntry(res, false)
}

// TestQueryEncodingMatchesOracle pins writeQuery byte-equal to the old
// encoding/json bodies on hand-built entries: point and anytime, top
// 0/1/n/over-length, several epsilons (so per-answer converged flags
// flip), degraded and not, and an empty answer list.
func TestQueryEncodingMatchesOracle(t *testing.T) {
	entries := map[string]*cachedResult{
		"point":   trickyPoint(),
		"anytime": trickyAnytime(),
		"empty":   {},
	}
	for name, c := range entries {
		for _, top := range []int{0, 1, 3, c.len(), c.len() + 5} {
			for _, eps := range []float64{0, 0.05, 0.1, 0.2, 0.5} {
				for _, degraded := range []string{"", "deadline"} {
					if !c.anytime && (eps != 0 || degraded != "") {
						continue
					}
					env := &queryEnvelope{method: "diss", safe: c.safe, cache: "hit", resultCache: "stale",
						begin: time.Now(), partitions: 7}
					if c.anytime {
						env.partitions = 0
						env.anytime, env.converged, env.degraded = true, c.allConverged(eps) && degraded == "", degraded
						env.width, env.epsilon = c.width, eps
					}
					rec := httptest.NewRecorder()
					writeQuery(rec, c, top, env)
					resp := rec.Result()
					got := rec.Body.Bytes()
					answers := oracleAnswers(c, top, eps)
					want := queryResponse{
						Answers: answers, Count: len(answers), Method: "diss", Safe: c.safe,
						Cache: "hit", ResultCache: "stale", ElapsedMS: elapsedOf(t, got), Partitions: env.partitions,
					}
					if c.anytime {
						converged := oracleAllConverged(c, eps) && degraded == ""
						width, e := c.width, eps
						want.Converged, want.Degraded, want.Width, want.Epsilon = &converged, degraded, &width, &e
					}
					checkBody(t, fmt.Sprintf("%s top=%d eps=%g degraded=%q", name, top, eps, degraded), resp, got, mustOracle(t, want))
				}
			}
		}
	}
}

// TestBatchEncodingMatchesOracle does the same for writeBatch: point,
// anytime, empty and error slots side by side.
func TestBatchEncodingMatchesOracle(t *testing.T) {
	point, at, empty := trickyPoint(), trickyAnytime(), &cachedResult{}
	v := &store.Version{Seq: 42, Fingerprint: "fp<&>\"x"}
	for _, eps := range []float64{0, 0.1, 0.3} {
		slots := []batchSlot{
			{entry: point, top: 2, cache: "hit"},
			{entry: point, top: 0, cache: "miss"},
			{entry: empty, top: 0, cache: "miss"},
			{err: &apiError{Code: "bad_query", Message: "parse \"q(x\" <here>\n"}},
			{entry: at, top: 4, cache: "hit", anytime: true, converged: at.allConverged(eps)},
			{entry: at, top: 100, cache: "miss", anytime: true, degraded: "budget"},
		}
		rec := httptest.NewRecorder()
		writeBatch(rec, slots, eps, v, 3, time.Now())
		got := rec.Body.Bytes()

		var results []batchResultJSON
		for _, sl := range slots {
			if sl.err != nil {
				results = append(results, batchResultJSON{Error: sl.err})
				continue
			}
			answers := oracleAnswers(sl.entry, sl.top, eps)
			r := batchResultJSON{Answers: answers, Count: len(answers), Safe: sl.entry.safe, Cache: sl.cache}
			if sl.anytime {
				converged := oracleAllConverged(sl.entry, eps) && sl.degraded == ""
				width := sl.entry.width
				r.Converged, r.Degraded, r.Width = &converged, sl.degraded, &width
			}
			results = append(results, r)
		}
		want := batchResponse{Results: results, Count: len(slots) - 1, Version: 42, Fingerprint: v.Fingerprint,
			SharedSubplanHits: 3, ElapsedMS: elapsedOf(t, got)}
		checkBody(t, fmt.Sprintf("batch eps=%g", eps), rec.Result(), got, mustOracle(t, want))
	}
}

// TestNonFiniteIsInternalError: a value JSON cannot carry fails the
// response with 500 and the typed internal error, never a 200 with an
// empty or truncated body — through writeJSON and through the
// appender alike.
func TestNonFiniteIsInternalError(t *testing.T) {
	check := func(what string, rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, want 500: %s", what, rec.Code, rec.Body)
		}
		if e := decodeErr(t, rec.Body.Bytes()); e.Code != "internal" {
			t.Fatalf("%s: error %+v, want code internal", what, e)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("%s: Content-Length %q for a %d-byte body", what, cl, rec.Body.Len())
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, map[string]float64{"x": f})
		check(fmt.Sprintf("writeJSON(%g)", f), rec)

		rec = httptest.NewRecorder()
		c := &cachedResult{answers: []lapushdb.Answer{{Values: []string{"a"}, Score: 0.5}, {Values: []string{"b"}, Score: f}}}
		writeQuery(rec, c, 0, &queryEnvelope{method: "diss", begin: time.Now()})
		check(fmt.Sprintf("point score %g", f), rec)
		// The failed extension published nothing; the finite first
		// answer still serves.
		rec = httptest.NewRecorder()
		writeQuery(rec, c, 1, &queryEnvelope{method: "diss", begin: time.Now()})
		if rec.Code != http.StatusOK {
			t.Fatalf("top 1 after a failed extension: status %d", rec.Code)
		}

		rec = httptest.NewRecorder()
		at := anytimeEntry(&lapushdb.AnytimeResult{Answers: []lapushdb.IntervalAnswer{{Lower: f, Upper: 1}}}, false)
		writeQuery(rec, at, 0, &queryEnvelope{method: "diss", anytime: true, begin: time.Now()})
		check(fmt.Sprintf("anytime lower %g", f), rec)

		rec = httptest.NewRecorder()
		writeQuery(rec, &cachedResult{}, 0, &queryEnvelope{method: "diss", anytime: true, width: f, begin: time.Now()})
		check(fmt.Sprintf("envelope width %g", f), rec)
	}
}

// TestConcurrentPrefixExtension hammers one point entry and one
// anytime entry from several goroutines with different top and epsilon
// values, so prefix extensions race with lock-free reads of older
// snapshots. Every body must still match the oracle. Run under -race.
func TestConcurrentPrefixExtension(t *testing.T) {
	const n = 300
	point := &cachedResult{}
	res := &lapushdb.AnytimeResult{Width: 0.3}
	for i := 0; i < n; i++ {
		vals := []string{fmt.Sprintf("v%d<&>\u2028", i)}
		score := 1 / float64(i+2)
		point.answers = append(point.answers, lapushdb.Answer{Values: vals, Score: score})
		res.Answers = append(res.Answers, lapushdb.IntervalAnswer{Values: vals, Lower: score - float64(i%4)*0.1, Upper: score})
	}
	entries := []*cachedResult{point, anytimeEntry(res, true)}
	tops := []int{1, 7, 0, 50, n - 1, 3, n + 10, 120}
	epss := []float64{0, 0.1, 0.15, 0.25, 0.35}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 40; it++ {
				c := entries[(g+it)%2]
				top := tops[(g*3+it)%len(tops)]
				eps := epss[(g+it*7)%len(epss)]
				env := &queryEnvelope{method: "diss", safe: c.safe, cache: "hit", resultCache: "hit", begin: time.Now()}
				if c.anytime {
					env.anytime, env.converged, env.width, env.epsilon = true, c.allConverged(eps), c.width, eps
				}
				rec := httptest.NewRecorder()
				writeQuery(rec, c, top, env)
				got := rec.Body.Bytes()
				answers := oracleAnswers(c, top, eps)
				want := queryResponse{Answers: answers, Count: len(answers), Method: "diss", Safe: c.safe,
					Cache: "hit", ResultCache: "hit", ElapsedMS: elapsedOf(t, got)}
				if c.anytime {
					converged, width, e := oracleAllConverged(c, eps), c.width, eps
					want.Converged, want.Width, want.Epsilon = &converged, &width, &e
				}
				wantBody, err := oracleEncode(want)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, wantBody) {
					t.Errorf("goroutine %d top=%d eps=%g anytime=%v: body differs\n got: %q\nwant: %q", g, top, eps, c.anytime, got, wantBody)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// trickyDB holds string values that exercise every escaping rule and
// probabilities whose answer scores take both float formats.
func trickyDB(t *testing.T) *lapushdb.DB {
	t.Helper()
	db := lapushdb.Open()
	r, err := db.CreateRelation("R", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.CreateRelation("S", "b")
	if err != nil {
		t.Fatal(err)
	}
	vals := []string{"plain", "<a&b>", `q"b\s`, "ctl\x01\n\t", "bad\xff", "sep\u2028\u2029", "日本"}
	for i, a := range vals {
		for j := 0; j < 3; j++ {
			if err := r.Insert(0.1*float64(i+j%2+1), a, fmt.Sprintf("b%d", (i+j)%4)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, p := range []float64{0.9, 1e-7, 0.5, 1} {
		if err := s.Insert(p, fmt.Sprintf("b%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// e2eModel predicts what a fresh server over trickyDB answers, from the
// library alone: answers from lapushdb ranking calls, cache labels from
// the request history. Its bodies are the old encoding/json bodies.
type e2eModel struct {
	t        *testing.T
	srv      *Server
	url      string
	lib      *lapushdb.DB
	planned  map[string]bool                    // plan cache holds the query
	points   map[string]bool                    // result cache holds the point ranking
	anytimes map[string]*lapushdb.AnytimeResult // result cache's anytime entry
}

func (m *e2eModel) planLabel(q string) string {
	label := cacheLabel(m.planned[q])
	m.planned[q] = true
	return label
}

func (m *e2eModel) safe(q string) bool {
	p, err := m.lib.Prepare(q, nil)
	if err != nil {
		m.t.Fatal(err)
	}
	return p.Safe()
}

func (m *e2eModel) anytimeOpts(eps float64) *lapushdb.AnytimeOptions {
	return &lapushdb.AnytimeOptions{Epsilon: eps, Workers: 1, MCMaxSamples: lapushdb.DefaultAnytimeMCMaxSamples}
}

// cacheAnytime mirrors putTighter: a wider result never replaces a
// tighter cached one.
func (m *e2eModel) cacheAnytime(q string, res *lapushdb.AnytimeResult) {
	if old := m.anytimes[q]; old == nil || old.Width > res.Width {
		m.anytimes[q] = res
	}
}

func (m *e2eModel) query(q string, top int) {
	m.t.Helper()
	resp, got := postJSON(m.t, m.url+"/v1/query", map[string]any{"query": q, "top": top})
	want := queryResponse{Method: "diss", Safe: m.safe(q), Cache: m.planLabel(q), ResultCache: "hit", ElapsedMS: elapsedOf(m.t, got)}
	stats := &lapushdb.RankStats{}
	answers, err := m.lib.Rank(q, &lapushdb.Options{Workers: 1, Stats: stats})
	if err != nil {
		m.t.Fatal(err)
	}
	if !m.points[q] {
		want.ResultCache, want.Partitions = "miss", stats.Partitions
		m.points[q] = true
	}
	want.Answers = oracleAnswers(&cachedResult{answers: answers}, top, 0)
	want.Count = len(want.Answers)
	checkBody(m.t, fmt.Sprintf("query %q top=%d", q, top), resp, got, mustOracle(m.t, want))
}

func (m *e2eModel) anytime(q string, top int, eps float64) {
	m.t.Helper()
	resp, got := postJSON(m.t, m.url+"/v1/query", map[string]any{"query": q, "top": top, "epsilon": eps})
	want := queryResponse{Method: "diss", Safe: m.safe(q), Cache: m.planLabel(q), ResultCache: "hit", ElapsedMS: elapsedOf(m.t, got)}
	res := m.anytimes[q]
	var converged bool
	if res != nil && res.Width <= eps {
		converged = oracleAllConverged(anytimeEntry(res, false), eps)
	} else {
		var err error
		if res, err = m.lib.RankAnytime(q, m.anytimeOpts(eps)); err != nil {
			m.t.Fatal(err)
		}
		want.ResultCache = "miss"
		converged = res.Converged && res.Degraded == ""
		want.Degraded = res.Degraded
		m.cacheAnytime(q, res)
	}
	width := res.Width
	want.Answers = oracleAnswers(anytimeEntry(res, false), top, eps)
	want.Count = len(want.Answers)
	want.Converged, want.Width, want.Epsilon = &converged, &width, &eps
	checkBody(m.t, fmt.Sprintf("anytime %q top=%d eps=%g", q, top, eps), resp, got, mustOracle(m.t, want))
}

// batch mirrors handleRankBatch: pass 1 serves cached queries and
// errors, then one library Batch evaluates the rest in order.
func (m *e2eModel) batch(queries []batchQueryJSON, eps *float64) {
	m.t.Helper()
	resp, got := postJSON(m.t, m.url+"/v1/rank_batch", batchRequest{Queries: queries, Epsilon: eps})
	v := m.srv.store.Current()
	want := batchResponse{Results: make([]batchResultJSON, len(queries)), Version: v.Seq, Fingerprint: v.Fingerprint, ElapsedMS: elapsedOf(m.t, got)}
	hit := func(q string) bool {
		if eps == nil {
			return m.points[q]
		}
		res := m.anytimes[q]
		return res != nil && res.Width <= *eps
	}
	var todo []int
	for i, bq := range queries {
		if _, err := m.lib.NormalizeQuery(bq.Query); err != nil {
			_, code, msg := errorStatus(err)
			want.Results[i] = batchResultJSON{Error: &apiError{Code: code, Message: msg}}
			continue
		}
		if hit(bq.Query) {
			want.Results[i] = m.batchSlot(bq, "hit", nil, eps)
			continue
		}
		todo = append(todo, i)
	}
	lb := m.lib.NewBatch(&lapushdb.Options{Workers: 1})
	ctx := context.Background()
	for _, i := range todo {
		bq := queries[i]
		if hit(bq.Query) {
			want.Results[i] = m.batchSlot(bq, "hit", nil, eps)
			continue
		}
		m.planLabel(bq.Query)
		p, err := m.lib.Prepare(bq.Query, nil)
		if err != nil {
			m.t.Fatal(err)
		}
		if eps == nil {
			if _, err := lb.RankPrepared(ctx, p); err != nil {
				m.t.Fatal(err)
			}
			m.points[bq.Query] = true
			want.Results[i] = m.batchSlot(bq, "miss", nil, eps)
			continue
		}
		res, err := lb.RankAnytimePrepared(ctx, p, m.anytimeOpts(*eps))
		if err != nil {
			m.t.Fatal(err)
		}
		m.cacheAnytime(bq.Query, res)
		want.Results[i] = m.batchSlot(bq, "miss", res, eps)
	}
	want.SharedSubplanHits = lb.Stats().SharedSubplanHits
	for _, r := range want.Results {
		if r.Error == nil {
			want.Count++
		}
	}
	checkBody(m.t, fmt.Sprintf("batch %+v eps=%v", queries, eps), resp, got, mustOracle(m.t, want))
}

// batchSlot renders one successful slot; res is the anytime result a
// miss just computed (nil: use the cached one).
func (m *e2eModel) batchSlot(bq batchQueryJSON, label string, res *lapushdb.AnytimeResult, eps *float64) batchResultJSON {
	r := batchResultJSON{Safe: m.safe(bq.Query), Cache: label}
	if eps == nil {
		answers, err := m.lib.Rank(bq.Query, &lapushdb.Options{Workers: 1})
		if err != nil {
			m.t.Fatal(err)
		}
		r.Answers = oracleAnswers(&cachedResult{answers: answers}, bq.Top, 0)
	} else {
		degraded := ""
		if res != nil {
			degraded = res.Degraded
		} else {
			res = m.anytimes[bq.Query]
		}
		entry := anytimeEntry(res, false)
		converged := oracleAllConverged(entry, *eps) && degraded == ""
		width := res.Width
		r.Answers = oracleAnswers(entry, bq.Top, *eps)
		r.Converged, r.Degraded, r.Width = &converged, degraded, &width
	}
	r.Count = len(r.Answers)
	return r
}

// TestResponseByteIdentity drives a live server through point and
// anytime queries, hit and miss, top 0/1/n/over-length, several
// epsilons, and point and anytime batches with error slots, comparing
// every body to the old encoding/json body built from library results.
func TestResponseByteIdentity(t *testing.T) {
	s := New(trickyDB(t), Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	m := &e2eModel{t: t, srv: s, url: ts.URL, lib: trickyDB(t),
		planned: map[string]bool{}, points: map[string]bool{}, anytimes: map[string]*lapushdb.AnytimeResult{}}

	const (
		qa = "q(a) :- R(a, b), S(b)"
		qb = "q(a, b) :- R(a, b)"
		qc = "q() :- R(a, b), S(b)"
		qd = "q(b) :- R(a, b), S(b)"
	)
	for _, top := range []int{0, 1, 3, 100} {
		m.query(qa, top)
		m.query(qb, top)
		m.query(qc, top)
	}
	for _, eps := range []float64{0.3, 0.5, 0.1, 0} {
		for _, top := range []int{0, 1, 2, 50} {
			m.anytime(qa, top, eps)
			m.anytime(qc, top, eps)
		}
	}
	m.batch([]batchQueryJSON{{Query: qa, Top: 1}, {Query: qd}, {Query: "q(x :- R("}, {Query: qd, Top: 2}, {Query: qb, Top: 500}}, nil)
	m.batch([]batchQueryJSON{{Query: qd, Top: 1}, {Query: qb}}, nil)
	eps := 0.2
	m.batch([]batchQueryJSON{{Query: qa, Top: 2}, {Query: qb}, {Query: qd, Top: 1}, {Query: qb, Top: 3}}, &eps)
	eps = 0.4
	m.batch([]batchQueryJSON{{Query: qa}, {Query: qb, Top: 1}, {Query: qd}}, &eps)
}
