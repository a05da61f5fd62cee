package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"lapushdb"
	"lapushdb/internal/store"
)

// POST /v1/rank_batch: evaluate several queries against one pinned
// store version. The batch shares three things a loop of /v1/query
// calls cannot:
//
//   - one snapshot — every query sees the same version, so the answers
//     are mutually consistent even under concurrent ingestion;
//   - one evaluation memo — canonicalized subplan results are reused
//     across the batch's queries (the cross-query extension of the
//     paper's Opt2), with one deadline and one intermediate-row budget
//     spanning the whole batch; and
//   - the result cache — queries already answered at this version are
//     served without taking a worker slot at all.
//
// Queries fail independently: a parse error, budget exhaustion, or
// deadline in one query yields an error object in that slot of the 200
// envelope, never a batch-wide 5xx. Only batch-level problems (empty
// or oversized batch, invalid shared options, admission failure before
// any evaluation) fail the whole request.

// errEmptyBatch and errBatchTooLarge are batch admission failures,
// mapped by errorStatus like every other request-level error.
var (
	errEmptyBatch    = errors.New(`server: field "queries" must hold at least one query`)
	errBatchTooLarge = errors.New("server: batch exceeds the configured query limit")
)

// batchQueryJSON is one query of a batch. Everything but the query
// text and its top-k cutoff is shared batch-wide: per-query methods or
// seeds would defeat subplan sharing and are deliberately absent.
type batchQueryJSON struct {
	Query string `json:"query"`
	Top   int    `json:"top"`
}

type batchRequest struct {
	Queries      []batchQueryJSON `json:"queries"`
	Method       string           `json:"method"`
	Samples      int              `json:"samples"`
	Seed         int64            `json:"seed"`
	TimeoutMS    int64            `json:"timeout_ms"`
	IgnoreSchema bool             `json:"ignore_schema"`
	Parallelism  int              `json:"parallelism"`
	// MaxRows bounds the intermediate rows the whole batch may
	// materialize — one budget across all queries, not one per query.
	MaxRows int `json:"max_rows"`
	// Epsilon switches the whole batch to anytime evaluation (method
	// "diss" only), exactly as on /v1/query: per-tuple [lower, upper]
	// intervals refined to the target width, sharing the batch memo and
	// row budget across queries and refinement stages alike.
	Epsilon *float64 `json:"epsilon"`
}

// batchSlot is one query's outcome in a batch response: the first top
// answers of a cached (or just-cached) result, or an error object with
// the same codes /v1/query would map to an HTTP status. On the wire:
//
//	{["answers":[...],]"count","safe"[,"cache"][,"error":{"code","message"}]
//	 [,"converged"[,"degraded"],"width"]}
//
// "answers" is omitted when there are none, "cache" (the result cache:
// "hit" or "miss") on errors. The anytime fields are per query, since
// refinement may converge for one query and be cut short for its
// neighbor; see queryEnvelope for their meaning.
type batchSlot struct {
	entry *cachedResult // nil on error
	top   int
	cache string
	err   *apiError

	anytime   bool
	converged bool
	degraded  string
}

// appendTo appends the slot to a batch body, rendering anytime
// convergence against the batch's epsilon.
func (sl *batchSlot) appendTo(b *body, eps float64) {
	n, safe := 0, false
	if sl.entry != nil {
		n, safe = sl.entry.count(sl.top), sl.entry.safe
	}
	b.raw("{")
	if n > 0 {
		b.raw(`"answers":[`)
		b.answers(sl.entry, n, eps)
		b.raw("],")
	}
	b.raw(`"count":`)
	b.int(int64(n))
	b.raw(`,"safe":`)
	b.bool(safe)
	if sl.cache != "" {
		b.raw(`,"cache":`)
		b.str(sl.cache)
	}
	if sl.err != nil {
		b.raw(`,"error":{"code":`)
		b.str(sl.err.Code)
		b.raw(`,"message":`)
		b.str(sl.err.Message)
		b.raw("}")
	}
	if sl.anytime {
		b.raw(`,"converged":`)
		b.bool(sl.converged)
		if sl.degraded != "" {
			b.raw(`,"degraded":`)
			b.str(sl.degraded)
		}
		b.raw(`,"width":`)
		b.float(sl.entry.width)
	}
	b.raw("}")
}

func (s *Server) handleRankBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		s.writeQueryError(w, errEmptyBatch)
		return
	}
	if len(req.Queries) > s.cfg.MaxBatchQueries {
		s.writeQueryError(w, fmt.Errorf("%w: %d queries, limit %d",
			errBatchTooLarge, len(req.Queries), s.cfg.MaxBatchQueries))
		return
	}
	if req.Method == "" {
		req.Method = "diss"
	}
	ep, ok := s.evalParams(w, req.Method, req.Samples, req.TimeoutMS, req.Parallelism, req.MaxRows)
	if !ok {
		return
	}
	eps, isAnytime, err := validateEpsilon(req.Epsilon)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	if isAnytime && req.Method != "diss" {
		writeError(w, http.StatusBadRequest, "bad_method",
			`field "epsilon" requires method "diss" (anytime refinement of the dissociation bounds)`)
		return
	}
	s.metrics.batchQueriesTotal.Add(int64(len(req.Queries)))
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	// Pin one version for the whole batch; its fingerprint scopes both
	// cache lookups, so every answer — cached or evaluated — reflects
	// exactly this snapshot.
	v := s.store.Current()
	begin := time.Now()

	results := make([]batchSlot, len(req.Queries))
	// Pass 1, before taking a worker slot: validate each query, then try
	// the result cache. A batch whose queries were all answered at this
	// version responds without ever entering the admission queue.
	var todo []pendingBatchQuery
	for i, bq := range req.Queries {
		if strings.TrimSpace(bq.Query) == "" {
			results[i] = batchSlot{err: &apiError{Code: "missing_query", Message: `field "query" is required`}}
			continue
		}
		if bq.Top < 0 {
			results[i] = batchSlot{err: &apiError{Code: "bad_top", Message: `field "top" must be >= 0`}}
			continue
		}
		normalized, err := v.DB.NormalizeQuery(bq.Query)
		if err != nil {
			results[i] = s.batchErrResult(err)
			continue
		}
		key := resultCacheKey(v.Fingerprint, req.Method, normalized, req.IgnoreSchema, ep.samples, req.Seed)
		if isAnytime {
			key = resultCacheKey(v.Fingerprint, "anytime", normalized, req.IgnoreSchema, anytimeMCMax(req.Samples), req.Seed)
		}
		if c, ok := s.results.get(key); ok && (!isAnytime || (c.anytime && c.width <= eps)) {
			s.metrics.resultCacheHits.Add(1)
			if isAnytime {
				results[i] = s.anytimeBatchResult(c, bq.Top, eps, "hit", "")
			} else {
				results[i] = batchSlot{entry: c, top: bq.Top, cache: "hit"}
			}
			continue
		}
		todo = append(todo, pendingBatchQuery{i: i, normalized: normalized, key: key})
	}

	var sharedHits int64
	if len(todo) > 0 {
		if err := s.acquire(ctx); err != nil {
			// Nothing was evaluated; fail the whole request the same way
			// /v1/query would (429/504), rather than faking per-query
			// results that are really one admission failure.
			s.writeQueryError(w, err)
			return
		}
		sharedHits = s.runBatch(ctx, v, &req, ep, eps, isAnytime, todo, results)
	}

	writeBatch(w, results, eps, v, sharedHits, begin)
}

// writeBatch writes a /v1/rank_batch response:
//
//	{"results":[...],"count","version","fingerprint","shared_subplan_hits","elapsed_ms"}
//
// followed by a newline, where count is the number of queries that
// succeeded.
func writeBatch(w http.ResponseWriter, results []batchSlot, eps float64, v *store.Version, sharedHits int64, begin time.Time) {
	b := newBody()
	b.raw(`{"results":[`)
	done := 0
	for i := range results {
		if i > 0 {
			b.raw(",")
		}
		results[i].appendTo(b, eps)
		if results[i].err == nil {
			done++
		}
	}
	b.raw(`],"count":`)
	b.int(int64(done))
	b.raw(`,"version":`)
	b.uint(v.Seq)
	b.raw(`,"fingerprint":`)
	b.str(v.Fingerprint)
	b.raw(`,"shared_subplan_hits":`)
	b.int(sharedHits)
	b.raw(`,"elapsed_ms":`)
	b.float(float64(time.Since(begin).Microseconds()) / 1000)
	b.raw("}\n")
	b.send(w)
}

// pendingBatchQuery is one query that missed the result cache in pass
// 1 and still needs evaluation.
type pendingBatchQuery struct {
	i          int    // index into the request's queries / results
	normalized string // canonical query text
	key        string // result-cache key
}

// runBatch evaluates the batch's result-cache misses while holding a
// worker slot (released by defer — see rankWithSlot for why). One
// lapushdb.Batch spans all of them, so subplan results flow across
// queries and one row budget covers the batch.
func (s *Server) runBatch(ctx context.Context, v *store.Version, req *batchRequest, ep evalParams, eps float64, isAnytime bool, todo []pendingBatchQuery, results []batchSlot) int64 {
	defer s.release()
	if s.testHookAfterAcquire != nil {
		s.testHookAfterAcquire()
	}
	stats := &lapushdb.RankStats{}
	opts := &lapushdb.Options{
		Method:              ep.method,
		MCSamples:           ep.samples,
		Seed:                req.Seed,
		IgnoreSchema:        req.IgnoreSchema,
		Workers:             ep.parallelism,
		Stats:               stats,
		MaxIntermediateRows: ep.maxRows,
	}
	batch := v.DB.NewBatch(opts)
	for _, pq := range todo {
		bq := req.Queries[pq.i]
		if isAnytime {
			results[pq.i] = s.runBatchAnytime(ctx, v, batch, req, ep, eps, pq, bq)
			continue
		}
		// A duplicate earlier in the batch (or a concurrent request) may
		// have filled the entry since pass 1.
		if c, ok := s.results.get(pq.key); ok {
			s.metrics.resultCacheHits.Add(1)
			results[pq.i] = batchSlot{entry: c, top: bq.Top, cache: "hit"}
			continue
		}
		s.metrics.resultCacheMisses.Add(1)
		p, _, err := s.preparedNorm(ctx, v, req.Method, bq.Query, pq.normalized, opts)
		if err != nil {
			results[pq.i] = s.batchErrResult(err)
			continue
		}
		answers, err := batch.RankPrepared(ctx, p)
		if err != nil {
			results[pq.i] = s.batchErrResult(err)
			continue
		}
		s.metrics.partitionsTotal.Add(stats.Partitions)
		entry := &cachedResult{answers: answers, safe: p.Safe()}
		s.results.put(pq.key, entry)
		results[pq.i] = batchSlot{entry: entry, top: bq.Top, cache: "miss"}
	}
	bs := batch.Stats()
	s.metrics.sharedSubplanHits.Add(bs.SharedSubplanHits)
	return bs.SharedSubplanHits
}

// runBatchAnytime fills one anytime slot of a running batch. Queries
// degrade independently: a deadline or budget exhaustion mid-refinement
// yields a non-converged interval in this slot (Degraded set) rather
// than an error, and the remaining slots still run — they may be served
// from already-memoized subplans even with the budget gone.
func (s *Server) runBatchAnytime(ctx context.Context, v *store.Version, batch *lapushdb.Batch, req *batchRequest, ep evalParams, eps float64, pq pendingBatchQuery, bq batchQueryJSON) batchSlot {
	if c, ok := s.results.get(pq.key); ok && c.anytime && c.width <= eps {
		s.metrics.resultCacheHits.Add(1)
		return s.anytimeBatchResult(c, bq.Top, eps, "hit", "")
	}
	s.metrics.resultCacheMisses.Add(1)
	popts := &lapushdb.Options{IgnoreSchema: req.IgnoreSchema}
	p, _, err := s.preparedNorm(ctx, v, req.Method, bq.Query, pq.normalized, popts)
	if err != nil {
		return s.batchErrResult(err)
	}
	res, err := batch.RankAnytimePrepared(ctx, p, &lapushdb.AnytimeOptions{
		Epsilon:             eps,
		IgnoreSchema:        req.IgnoreSchema,
		Workers:             ep.parallelism,
		MaxIntermediateRows: ep.maxRows,
		MCMaxSamples:        anytimeMCMax(req.Samples),
		Seed:                req.Seed,
	})
	if err != nil {
		return s.batchErrResult(err)
	}
	entry := anytimeEntry(res, p.Safe())
	s.putTighter(pq.key, entry)
	return s.anytimeBatchResult(entry, bq.Top, eps, "miss", res.Degraded)
}

// anytimeBatchResult fills one anytime slot from a cache entry, with
// convergence judged against the requested epsilon.
func (s *Server) anytimeBatchResult(c *cachedResult, top int, eps float64, label, degraded string) batchSlot {
	converged := c.allConverged(eps) && degraded == ""
	s.noteAnytime(converged, degraded, c.width)
	return batchSlot{entry: c, top: top, cache: label, anytime: true, converged: converged, degraded: degraded}
}

// batchErrResult maps one query's failure into its in-envelope error
// object. The batch responds 200 with partial results, so the
// per-query code carries what a standalone request would put in the
// HTTP status; the per-class metrics are maintained identically.
func (s *Server) batchErrResult(err error) batchSlot {
	_, code, msg := errorStatus(err)
	s.noteQueryError(code)
	return batchSlot{err: &apiError{Code: code, Message: msg}}
}
