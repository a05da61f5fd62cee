package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"

	"lapushdb"
	"lapushdb/internal/store"
)

// Verification runs after the timed window, so the window keeps only a
// digest per response. hot_point and cold_rank replay each distinct
// request once, check that the replayed answer has the digest every
// timed answer to that request had, and check the replayed answer
// against the library on the pinned store version. ingest_mix checks
// that reads were well-formed and that every write published the next
// version, then reopens the store from its directory and compares it
// with a library model that applied the same mutations.

type answerWire struct {
	Values   []string `json:"values"`
	Score    float64  `json:"score"`
	Interval *struct {
		Lower     float64 `json:"lower"`
		Upper     float64 `json:"upper"`
		Converged bool    `json:"converged"`
	} `json:"interval"`
}

type resultWire struct {
	Answers   []answerWire `json:"answers"`
	Count     int          `json:"count"`
	Converged *bool        `json:"converged"`
	Width     *float64     `json:"width"`
	Degraded  string       `json:"degraded"`
	Error     *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

type batchWire struct {
	Results []resultWire `json:"results"`
}

// library memoizes the library's own answers on one pinned version.
type library struct {
	db   *lapushdb.DB
	memo map[string][]lapushdb.Answer
}

func newLibrary(db *lapushdb.DB) *library {
	return &library{db: db, memo: map[string][]lapushdb.Answer{}}
}

func (l *library) rank(q string) ([]lapushdb.Answer, error) {
	if a, ok := l.memo[q]; ok {
		return a, nil
	}
	a, err := l.db.Rank(q, &lapushdb.Options{})
	if err != nil {
		return nil, fmt.Errorf("library rank %q: %w", q, err)
	}
	l.memo[q] = a
	return a, nil
}

// verifyBody checks one response body against the library.
func verifyBody(lib *library, req *request, body []byte) error {
	switch req.kind {
	case kindQuery, kindAnytime:
		var r resultWire
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		return verifyResult(lib, req, 0, &r)
	case kindBatch:
		var b batchWire
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		if len(b.Results) != len(req.queries) {
			return fmt.Errorf("batch returned %d results for %d queries", len(b.Results), len(req.queries))
		}
		for i := range b.Results {
			if err := verifyResult(lib, req, i, &b.Results[i]); err != nil {
				return fmt.Errorf("batch slot %d: %w", i, err)
			}
		}
		return nil
	}
	return fmt.Errorf("no verifier for %s requests", req.kind)
}

// verifyResult checks query i of req: point answers bit-identical to
// library Rank (the first top of them); anytime intervals consistent
// with the library's dissociation score (see intervalHolds) and no
// wider than epsilon where marked converged.
func verifyResult(lib *library, req *request, i int, r *resultWire) error {
	if r.Error != nil {
		return fmt.Errorf("error %s: %s", r.Error.Code, r.Error.Message)
	}
	want, err := lib.rank(req.queries[i])
	if err != nil {
		return err
	}
	n := len(want)
	if t := req.tops[i]; t > 0 && t < n {
		n = t
	}
	if len(r.Answers) != n || r.Count != n {
		return fmt.Errorf("%d answers (count %d), library gives %d", len(r.Answers), r.Count, n)
	}
	if req.kind != kindAnytime {
		for j, a := range r.Answers {
			if !sameValues(a.Values, want[j].Values) || math.Float64bits(a.Score) != math.Float64bits(want[j].Score) {
				return fmt.Errorf("answer %d is %v %v, library gives %v %v", j, a.Values, a.Score, want[j].Values, want[j].Score)
			}
		}
		return nil
	}
	if r.Degraded != "" || r.Converged == nil || r.Width == nil {
		return fmt.Errorf("anytime response degraded %q or without convergence fields", r.Degraded)
	}
	diss := map[string]float64{}
	for _, a := range want {
		diss[strings.Join(a.Values, "\x00")] = a.Score
	}
	all := true
	for j, a := range r.Answers {
		d, ok := diss[strings.Join(a.Values, "\x00")]
		iv := a.Interval
		switch {
		case !ok:
			return fmt.Errorf("anytime answer %v is not a library answer", a.Values)
		case iv == nil:
			return fmt.Errorf("anytime answer %d has no interval", j)
		case !intervalHolds(iv.Lower, iv.Upper, d) || a.Score != iv.Upper:
			return fmt.Errorf("anytime answer %v: interval [%v, %v] score %v against dissociation score %v", a.Values, iv.Lower, iv.Upper, a.Score, d)
		case iv.Converged != (iv.Upper-iv.Lower <= req.eps):
			return fmt.Errorf("anytime answer %v: converged=%v with width %v at epsilon %v", a.Values, iv.Converged, iv.Upper-iv.Lower, req.eps)
		}
		all = all && iv.Converged
	}
	if *r.Converged && (!all || *r.Width > req.eps) {
		return fmt.Errorf("anytime response converged with width %v at epsilon %v", *r.Width, req.eps)
	}
	return nil
}

// intervalHolds checks an anytime interval against the dissociation
// score d of the same answer. The true probability p satisfies
// lower <= p <= d. Upper is the minimum over the plans evaluated so far
// (so >= d, as refinement may stop before the last plan) until the
// exact stage collapses the interval to p (then lower == upper <= d).
// The tolerance covers floating-point reassociation between the merged
// plan the library ranks with and the per-plan evaluation.
func intervalHolds(lower, upper, d float64) bool {
	tol := 1e-9 * d
	return lower >= 0 && lower <= upper && lower <= d+tol && (lower == upper || upper >= d-tol)
}

func sameValues(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verifyWindow checks every answer the window received and the
// workload's self-check, returning the number of failed requests.
func verifyWindow(n *node, p *plan, w *window, out *output) (int, error) {
	p.selfCheck(w, out)
	if p.distinct != nil {
		return verifyReplayed(n, p, w, out)
	}
	return verifyIngest(n, p, w, out)
}

func verifyReplayed(n *node, p *plan, w *window, out *output) (int, error) {
	lib := newLibrary(n.st.Current().DB)
	good := map[int]uint64{}
	ids := make([]int, 0, len(p.distinct))
	for id := range p.distinct {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var buf bytes.Buffer
	for _, id := range ids {
		req := p.distinct[id]
		res, body := n.do(context.Background(), req, id, &buf)
		if res.err == nil && res.status == http.StatusOK {
			res.err = verifyBody(lib, req, body)
		} else if res.err == nil {
			res.err = fmt.Errorf("status %d: %s", res.status, truncate(body))
		}
		if res.err != nil {
			out.mismatch("request %d (%s): %v", id, req.kind, res.err)
			continue
		}
		good[id] = res.digest
	}
	failed := 0
	for _, l := range w.lanes {
		for i, r := range l.out {
			d, ok := good[l.ids[i]]
			if r.err != nil || r.status != http.StatusOK || !ok || r.digest != d {
				failed++
				if ok && r.err == nil && r.status == http.StatusOK {
					out.mismatch("request %d: timed answer differs from the verified replay", l.ids[i])
				}
			}
		}
	}
	return failed, nil
}

func verifyIngest(n *node, p *plan, w *window, out *output) (int, error) {
	failed := 0
	for _, l := range w.lanes {
		for i, r := range l.out {
			if r.err != nil || r.status != http.StatusOK || (l.name == "read" && !r.wellFormed) {
				failed++
				out.mismatch("%s %d: status %d, err %v", l.name, l.ids[i], r.status, r.err)
			}
		}
	}
	served := n.st.Stats()
	out.selfCheck(served.Durable && served.Fsync == string(store.FsyncAlways),
		"served store is durable=%v with fsync %q, want a durable store with fsync always", served.Durable, served.Fsync)

	// Recovery: close everything, reopen the store from its directory
	// and compare it with the library model.
	dir := n.dir
	if err := n.close(); err != nil {
		return 0, err
	}
	st, err := store.Open(nil, store.Options{Dir: dir, Fsync: store.FsyncAlways, CheckpointEvery: 256})
	if err != nil {
		return 0, fmt.Errorf("reopen store: %w", err)
	}
	defer st.Close()
	acked := uint64(len(p.d.batches) + p.writes)
	if seq := st.Current().Seq; seq != acked {
		failed += p.writes
		out.mismatch("reopened store is at seq %d, %d batches were acknowledged", seq, acked)
		return failed, nil
	}
	model, err := buildModel(p)
	if err != nil {
		return 0, err
	}
	got, want := newLibrary(st.Current().DB), newLibrary(model)
	checks := []string{chainPrefix, chainSuffix}
	for _, r := range p.lanes[1].reqs[len(p.lanes[1].reqs)-8:] {
		checks = append(checks, r.queries[0])
	}
	for _, q := range checks {
		a, err := got.rank(q)
		if err != nil {
			return 0, err
		}
		b, err := want.rank(q)
		if err != nil {
			return 0, err
		}
		if !sameAnswers(a, b) {
			failed += p.writes
			out.mismatch("recovered store answers %q differently from the library model", q)
			break
		}
	}
	return failed, nil
}

func sameAnswers(a, b []lapushdb.Answer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValues(a[i].Values, b[i].Values) || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// buildModel applies the seeding and every write batch of the plan to
// a fresh library database through lapushdb's public API.
func buildModel(p *plan) (*lapushdb.DB, error) {
	db := lapushdb.Open()
	batches := append([][]store.Mutation(nil), p.d.batches...)
	for _, l := range append(append([]lane(nil), p.warm...), p.lanes...) {
		if l.name == "write" {
			for _, r := range l.reqs {
				batches = append(batches, r.muts)
			}
		}
	}
	for _, b := range batches {
		for _, m := range b {
			if err := applyModel(db, m); err != nil {
				return nil, fmt.Errorf("model %s %s %v: %w", m.Op, m.Rel, m.Tuple, err)
			}
		}
	}
	return db, nil
}

func applyModel(db *lapushdb.DB, m store.Mutation) error {
	if m.Op == store.OpCreateRelation {
		_, err := db.CreateRelation(m.Rel, m.Cols...)
		return err
	}
	r := db.Relation(m.Rel)
	if r == nil {
		return fmt.Errorf("no relation")
	}
	vals := make([]any, len(m.Tuple))
	for i, s := range m.Tuple {
		vals[i] = s
	}
	if m.Op == store.OpInsert {
		return r.Insert(*m.P, vals...)
	}
	i, ok := r.Find(vals...)
	if !ok {
		return fmt.Errorf("no such tuple")
	}
	if m.Op == store.OpSetProb {
		return r.SetProbAt(i, *m.P)
	}
	return r.DeleteAt(i)
}
