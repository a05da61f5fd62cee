package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"lapushdb/internal/store"
)

// Request kinds.
const (
	kindQuery   = "query"   // /v1/query, method diss
	kindAnytime = "anytime" // /v1/query with an epsilon
	kindBatch   = "batch"   // /v1/rank_batch
	kindWrite   = "write"   // /v1/ingest
)

// request is one element of a workload stream: the HTTP request plus
// what the verifier and the traced run need to know about it. A stream
// is a pure function of (workload, seed, length).
type request struct {
	kind        string
	path        string
	body        []byte
	queries     []string // one, or the batch's queries in order
	tops        []int    // top per query
	eps         float64  // anytime only
	parallelism int      // requested intra-query workers (0 = server default)
	muts        []store.Mutation
}

// Wire shapes of the request bodies, kept local so the benchmark
// measures the HTTP contract rather than shared Go structs.
type queryBody struct {
	Query       string   `json:"query"`
	Top         int      `json:"top,omitempty"`
	Parallelism int      `json:"parallelism,omitempty"`
	Epsilon     *float64 `json:"epsilon,omitempty"`
}

type batchQueryBody struct {
	Query string `json:"query"`
	Top   int    `json:"top,omitempty"`
}

type batchBody struct {
	Queries     []batchQueryBody `json:"queries"`
	Parallelism int              `json:"parallelism,omitempty"`
}

type ingestBody struct {
	Mutations []store.Mutation `json:"mutations"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal request: %v", err))
	}
	return b
}

func pointRequest(query string, top, parallelism int) request {
	return request{
		kind: kindQuery, path: "/v1/query",
		body:    mustJSON(queryBody{Query: query, Top: top, Parallelism: parallelism}),
		queries: []string{query}, tops: []int{top}, parallelism: parallelism,
	}
}

func anytimeRequest(query string, top int, eps float64) request {
	return request{
		kind: kindAnytime, path: "/v1/query",
		body:    mustJSON(queryBody{Query: query, Top: top, Epsilon: &eps}),
		queries: []string{query}, tops: []int{top}, eps: eps,
	}
}

func batchRequest(queries []string, tops []int) request {
	b := batchBody{}
	for i, q := range queries {
		b.Queries = append(b.Queries, batchQueryBody{Query: q, Top: tops[i]})
	}
	return request{kind: kindBatch, path: "/v1/rank_batch", body: mustJSON(b), queries: queries, tops: tops}
}

func writeRequest(muts []store.Mutation) request {
	return request{kind: kindWrite, path: "/v1/ingest", body: mustJSON(ingestBody{Mutations: muts}), muts: muts}
}

// Query templates. Each cold template has its own shape, so queries
// drawn from different templates can never normalize to the same text
// and share a cache entry.
const (
	chainFull   = "q(x0, x3) :- BenchR1(x0, x1), BenchR2(x1, x2), BenchR3(x2, x3)"
	chainPrefix = "q(x0, x2) :- BenchR1(x0, x1), BenchR2(x1, x2)"
	chainSuffix = "q(x1, x3) :- BenchR2(x1, x2), BenchR3(x2, x3)"
	starQuery   = "q() :- BenchS1('hub', x1), BenchS2(x2), BenchS0(x1, x2)"
)

func chainTail(c int) string {
	return fmt.Sprintf("q(x0) :- BenchR1(x0, x1), BenchR2(x1, x2), BenchR3(x2, %d)", c)
}

func tpch(op string, k int, color string) string {
	return fmt.Sprintf("q(a) :- BenchSupplier(s, a), BenchPartsupp(s, u), BenchPart(u, n), s %s %d, n like '%%%s%%'", op, k, color)
}

// hotPool is hot_point's fixed request pool: diss and anytime ranks
// over chain, star and TPC-H, each with the full answer list and with
// top 10. Its 32 requests sit far inside the server's 512-entry result
// cache and 256-entry plan cache.
func hotPool() []request {
	queries := []string{
		chainTail(7),
		chainTail(311),
		chainPrefix + ", x0 <= 20",
		chainSuffix + ", x3 <= 20",
		starQuery,
		tpch("<=", suppliers/2, "red"),
		tpch("<=", suppliers/2, "green"),
		tpch(">=", suppliers/3, "blue"),
	}
	var pool []request
	for _, q := range queries {
		pool = append(pool,
			pointRequest(q, 0, 0),
			pointRequest(q, 10, 0),
			anytimeRequest(q, 0, 0.1),
			anytimeRequest(q, 10, 0.1),
		)
	}
	return pool
}

// hotStream is hot_point's fixed request order: n draws from the pool.
func hotStream(seed int64, pool []request, n int) []int {
	r := rng(seed, streamHot, 0)
	out := make([]int, n)
	for i := range out {
		out[i] = r.Intn(len(pool))
	}
	return out
}

// coldSchedule fixes cold_rank's mix: per cycle of 10 requests, six
// diss point ranks (half at parallelism 2), two anytime ranks and two
// rank_batch calls.
var coldSchedule = []string{"chain1", "tpch2", "anytime", "chain2", "batch", "tpch1", "star1", "anytime", "star2", "batch"}

// coldStream returns cold_rank's first n requests. Every request is
// distinct from every other one of the stream: the j-th use of a
// template takes the j-th element of a seeded permutation of that
// template's constant space, and templates differ in shape.
func coldStream(seed int64, n int) ([]request, error) {
	perms, uses := map[string][]int{}, map[string]int{}
	var err error
	pick := func(name string, space int) int {
		p, ok := perms[name]
		if !ok {
			p = rng(seed, streamPerm, int64(slices.Index(coldSchedule, name))).Perm(space)
			perms[name] = p
		}
		j := uses[name]
		uses[name]++
		if j >= len(p) {
			err = fmt.Errorf("cold template %s has only %d distinct constants", name, space)
			return 0
		}
		return p[j]
	}
	const chainWidth = 40 // x0 window of a cold chain rank
	out := make([]request, 0, n)
	for i := 0; i < n; i++ {
		name := coldSchedule[i%len(coldSchedule)]
		var req request
		switch name {
		case "chain1", "chain2":
			c := pick(name, (chainDomain-chainWidth)*8)
			lo, tail := c/8, c%8
			q := fmt.Sprintf("%s, x0 >= %d, x0 <= %d, x3 >= %d", chainFull, lo, lo+chainWidth, tail)
			if name == "chain2" {
				q = fmt.Sprintf("%s, x0 >= %d, x0 <= %d, x3 != %d", chainFull, lo, lo+chainWidth, tail)
			}
			req = pointRequest(q, 10, parallelismFor(name))
		case "tpch1", "tpch2":
			c := pick(name, (suppliers/2)*len(colors))
			k, color := suppliers/2+c/len(colors), colors[c%len(colors)]
			op := "<="
			if name == "tpch2" {
				op, k = ">=", k-suppliers/2
			}
			req = pointRequest(tpch(op, k, color), 0, parallelismFor(name))
		case "star1", "star2":
			c := pick(name, (starDomain/2)*(starDomain/2))
			a, b := starDomain/2+c/(starDomain/2), starDomain/2+c%(starDomain/2)
			op := "<="
			if name == "star2" {
				op = "<"
			}
			req = pointRequest(fmt.Sprintf("%s, x1 %s %d, x2 %s %d", starQuery, op, a, op, b), 0, parallelismFor(name))
		case "anytime":
			c := pick(name, chainDomain*8)
			req = anytimeRequest(fmt.Sprintf("%s, x0 <= %d", chainTail(c/8), chainDomain/2+c%8), 10, 0.05)
		case "batch":
			c := pick(name, (chainDomain-chainWidth)*8)
			lo, tail := c/8, c%8
			r := rng(seed, streamCold, int64(i))
			bound := fmt.Sprintf(", x1 >= %d, x1 <= %d, x2 >= %d", lo, lo+chainWidth, tail)
			all := []string{
				chainPrefix + bound,
				chainFull + bound,
				chainFull + bound + fmt.Sprintf(", x3 <= %d", chainDomain-1-tail),
				chainSuffix + bound,
				chainFull + bound + fmt.Sprintf(", x3 > %d", tail),
			}
			n := 3 + r.Intn(3)
			tops := make([]int, n)
			for t := range tops {
				tops[t] = 10
			}
			req = batchRequest(all[:n], tops)
		}
		out = append(out, req)
	}
	return out, err
}

// parallelismFor runs the "2" variant of each point template at two
// intra-query workers, the other at the server default of one.
func parallelismFor(name string) int {
	if name[len(name)-1] == '2' {
		return 2
	}
	return 0
}

// writeStream returns ingest_mix's first n write batches. Batch k
// sets fresh probabilities on four existing BenchR2 tuples, inserts one
// new tuple and deletes the one batch k-1 inserted: relation sizes stay
// constant, no state repeats and no batch is a no-op.
func writeStream(d *dataset, seed int64, n int) []request {
	out := make([]request, 0, n)
	for k := 0; k < n; k++ {
		r := rng(seed, streamWrite, int64(k))
		var muts []store.Mutation
		for i := 0; i < 4; i++ {
			muts = append(muts, store.Mutation{Op: store.OpSetProb, Rel: "BenchR2",
				Tuple: d.chainR2[r.Intn(len(d.chainR2))], P: prob(r)})
		}
		muts = append(muts, store.Mutation{Op: store.OpInsert, Rel: "BenchR2", Tuple: insertedTuple(seed, k), P: prob(r)})
		if k > 0 {
			muts = append(muts, store.Mutation{Op: store.OpDelete, Rel: "BenchR2", Tuple: insertedTuple(seed, k-1)})
		}
		out = append(out, writeRequest(muts))
	}
	return out
}

// insertedTuple is the tuple write batch k inserts: x1 joins BenchR1,
// x2 lies outside the generated domain, so the tuple is unique.
func insertedTuple(seed int64, k int) []string {
	x1 := rng(seed, streamWrite, -int64(k)-1).Intn(chainDomain)
	return []string{strconv.Itoa(x1), strconv.Itoa(chainDomain + k)}
}

func prob(r *rand.Rand) *float64 {
	p := r.Float64() * piMax
	return &p
}

// readStream returns ingest_mix's first n reads: chain ranks over
// the mutated BenchR2, each distinct so that every read misses the
// result cache whatever the interleaving with writes.
func readStream(seed int64, n int) []request {
	out := make([]request, 0, n)
	off := rng(seed, streamRead, 0).Intn(chainDomain)
	for i := 0; i < n; i++ {
		lo := (i + off) % chainDomain
		q := fmt.Sprintf("%s, x1 >= %d, x1 <= %d, x0 != %d", chainPrefix, lo, lo+20, i/chainDomain)
		out = append(out, pointRequest(q, 10, 0))
	}
	return out
}
