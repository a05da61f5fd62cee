package server

import (
	"context"
	"errors"
	"net/http"
	"time"

	"lapushdb"
	"lapushdb/internal/store"
)

// Anytime request path. A /v1/query (or /v1/rank_batch) request that
// carries an epsilon is answered with [lower, upper] probability
// intervals, refined until every answer's width reaches epsilon or the
// deadline fires — and, the robustness payoff, the failure paths
// degrade instead of discarding work:
//
//   - deadline (would be 504) and row budget (would be 422) during
//     refinement return 200 with the best-so-far, non-converged
//     intervals, as long as at least one refinement stage completed;
//   - shed at admission (would be 429) and deadline at admission serve
//     a stale cached interval of any width as a degraded 200 when one
//     exists for the query.
//
// Result-cache entries are tagged with the width they achieved: a
// request with a looser epsilon is a hit, a tighter one re-refines, and
// a wider re-computation never overwrites a tighter cached interval.

// anytimeMCMax resolves the per-answer Monte Carlo sample cap from the
// request's samples field (0 = the anytime default). The resolved value
// is part of the result-cache key, so an explicit default and an
// omitted field share an entry.
func anytimeMCMax(samples int) int {
	if samples <= 0 {
		return lapushdb.DefaultAnytimeMCMaxSamples
	}
	return samples
}

// handleAnytimeQuery is /v1/query's anytime branch; req.Epsilon is
// validated and req.Method is "diss".
func (s *Server) handleAnytimeQuery(w http.ResponseWriter, r *http.Request, req *queryRequest, eps float64, ep evalParams) {
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	v := s.store.Current()
	begin := time.Now()
	normalized, err := v.DB.NormalizeQuery(req.Query)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	// The plan cache keys by "diss": a Prepared is method-independent
	// and anytime refines the same minimal plans.
	popts := &lapushdb.Options{IgnoreSchema: req.IgnoreSchema}
	p, hit, err := s.preparedNorm(ctx, v, "diss", req.Query, normalized, popts)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	mcMax := anytimeMCMax(req.Samples)
	// The key deliberately omits epsilon: one entry per query serves
	// every epsilon at or above its achieved width.
	rkey := resultCacheKey(v.Fingerprint, "anytime", normalized, req.IgnoreSchema, mcMax, req.Seed)
	if c, ok := s.results.get(rkey); ok && c.anytime && c.width <= eps {
		s.metrics.resultCacheHits.Add(1)
		s.writeAnytimeCached(w, req, p.Safe(), hit, "hit", c, eps, "", begin)
		return
	}
	s.metrics.resultCacheMisses.Add(1)
	if err := s.acquire(ctx); err != nil {
		// Shed or out of deadline before any work: a stale loose
		// interval beats discarding the request — the bounds are valid
		// for this store version, just wider than asked.
		if c, ok := s.results.get(rkey); ok && c.anytime {
			label := "deadline"
			if errors.Is(err, errOverloaded) {
				label = "shed"
			}
			s.metrics.anytimeDegraded.Add(1)
			s.writeAnytimeCached(w, req, p.Safe(), hit, "stale", c, eps, label, begin)
			return
		}
		s.writeQueryError(w, err)
		return
	}
	res, err := s.anytimeWithSlot(ctx, v, p, req, eps, ep, mcMax)
	if err != nil {
		// Refinement died before its first stage completed. A cached
		// interval (any width) still serves deadline/budget failures.
		if status, _, _ := errorStatus(err); status == http.StatusGatewayTimeout || status == http.StatusUnprocessableEntity {
			if c, ok := s.results.get(rkey); ok && c.anytime {
				label := "deadline"
				if status == http.StatusUnprocessableEntity {
					label = "budget"
				}
				s.metrics.anytimeDegraded.Add(1)
				s.writeAnytimeCached(w, req, p.Safe(), hit, "stale", c, eps, label, begin)
				return
			}
		}
		s.writeQueryError(w, err)
		return
	}
	entry := anytimeEntry(res, p.Safe())
	s.putTighter(rkey, entry)
	s.noteAnytime(res.Converged, res.Degraded, res.Width)
	writeQuery(w, entry, req.Top, &queryEnvelope{
		method:      req.Method,
		safe:        p.Safe(),
		cache:       cacheLabel(hit),
		resultCache: "miss",
		begin:       begin,
		anytime:     true,
		converged:   res.Converged && res.Degraded == "",
		degraded:    res.Degraded,
		width:       res.Width,
		epsilon:     eps,
	})
}

// anytimeWithSlot runs the anytime evaluation while holding a worker
// slot (released by defer — see rankWithSlot).
func (s *Server) anytimeWithSlot(ctx context.Context, v *store.Version, p *lapushdb.Prepared, req *queryRequest, eps float64, ep evalParams, mcMax int) (*lapushdb.AnytimeResult, error) {
	defer s.release()
	if s.testHookAfterAcquire != nil {
		s.testHookAfterAcquire()
	}
	return v.DB.RankAnytimePrepared(ctx, p, &lapushdb.AnytimeOptions{
		Epsilon:             eps,
		IgnoreSchema:        req.IgnoreSchema,
		Workers:             ep.parallelism,
		MaxIntermediateRows: ep.maxRows,
		MCMaxSamples:        mcMax,
		Seed:                req.Seed,
	})
}

// writeAnytimeCached serves an anytime response from a cache entry —
// a genuine hit (entry width within epsilon) or a stale degraded
// fallback — with per-answer convergence judged against the requested
// epsilon.
func (s *Server) writeAnytimeCached(w http.ResponseWriter, req *queryRequest, safe, planHit bool, cacheLabelStr string, c *cachedResult, eps float64, degraded string, begin time.Time) {
	converged := c.allConverged(eps) && degraded == ""
	s.noteAnytime(converged, degraded, c.width)
	writeQuery(w, c, req.Top, &queryEnvelope{
		method:      req.Method,
		safe:        safe,
		cache:       cacheLabel(planHit),
		resultCache: cacheLabelStr,
		begin:       begin,
		anytime:     true,
		converged:   converged,
		degraded:    degraded,
		width:       c.width,
		epsilon:     eps,
	})
}

// noteAnytime maintains the anytime metrics for one served response.
func (s *Server) noteAnytime(converged bool, degraded string, width float64) {
	if converged {
		s.metrics.anytimeConverged.Add(1)
	}
	if degraded != "" {
		s.metrics.anytimeDegraded.Add(1)
	}
	s.metrics.anytimeWidth.observe(width)
}
