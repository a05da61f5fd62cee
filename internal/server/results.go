package server

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"lapushdb"
)

// Result cache. A cachedResult is one query's fully evaluated, ranked
// answer list against one store version. The answers are immutable
// after insertion. Because the cache key starts with the pinned
// version's fingerprint — which changes on every ingested mutation
// batch — ingestion invalidates the whole cache naturally, with stale
// entries aging out of the LRU.
//
// Each entry also memoizes the JSON encoding of its answers, lazily:
// the prefix covering the first k answers served so far. A response
// for top n <= k is a slice of those bytes; a larger n extends the
// prefix once. Encoding only what has been asked for matters because
// a ranking may hold thousands of answers while its requests ask for
// ten (see encode.go for the byte format).
type cachedResult struct {
	answers   []lapushdb.Answer         // point entries
	intervals []lapushdb.IntervalAnswer // anytime entries
	safe      bool

	// Anytime entries are tagged with the width they achieved: a
	// request with epsilon >= width is a hit (its target is already
	// met), a tighter request re-refines instead of being served a
	// stale loose interval, and shed/deadline fallbacks may serve any
	// width as a degraded 200. widest is the widest per-answer gap
	// upper − lower, so every answer converged at epsilon exactly when
	// widest <= epsilon.
	anytime bool
	width   float64
	widest  float64

	// mu serializes prefix extension; enc is the latest published
	// prefix, read without the lock.
	mu  sync.Mutex
	enc atomic.Pointer[encodedPrefix]
}

// encodedPrefix is an immutable snapshot of an entry's encoded answers.
// Answer i is buf[ends[i-1]:ends[i]] (from 0 for i = 0), with a leading
// comma for i > 0, so the first n answers are buf[:ends[n-1]]. An
// anytime answer stops just before its "converged" value, which depends
// on the requested epsilon and is spliced in per response.
type encodedPrefix struct {
	buf  []byte
	ends []int32
}

// anytimeEntry builds the width-tagged cache entry for one anytime
// result. The score slot carries the upper bound — the same guaranteed
// bound the dissociation method ranks by.
func anytimeEntry(res *lapushdb.AnytimeResult, safe bool) *cachedResult {
	c := &cachedResult{intervals: res.Answers, safe: safe, anytime: true, width: res.Width}
	for _, a := range res.Answers {
		c.widest = max(c.widest, a.Upper-a.Lower) // NaN propagates: never converged
	}
	return c
}

func (c *cachedResult) len() int {
	if c.anytime {
		return len(c.intervals)
	}
	return len(c.answers)
}

// count resolves a request's top to the number of answers it gets (all
// of them when top <= 0).
func (c *cachedResult) count(top int) int {
	n := c.len()
	if top > 0 && top < n {
		return top
	}
	return n
}

// converged reports whether anytime answer i reached epsilon.
func (c *cachedResult) converged(i int, eps float64) bool {
	a := &c.intervals[i]
	return a.Upper-a.Lower <= eps
}

// allConverged reports whether every answer — not only the served
// ones — reached epsilon.
func (c *cachedResult) allConverged(eps float64) bool { return c.widest <= eps }

// prefix returns an encoded prefix covering at least the first n
// answers (1 <= n <= c.len()). A covering snapshot is read lock-free;
// otherwise the prefix is extended under mu and republished. Extension
// appends past the end of the previous snapshot's bytes (reallocating
// when full) and never rewrites them, so readers of older snapshots
// are unaffected.
func (c *cachedResult) prefix(n int) (*encodedPrefix, error) {
	if p := c.enc.Load(); p != nil && len(p.ends) >= n {
		return p, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.enc.Load()
	if p == nil {
		p = &encodedPrefix{}
	} else if len(p.ends) >= n {
		return p, nil
	}
	buf, ends := p.buf, p.ends
	for i := len(ends); i < n; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		var err error
		if c.anytime {
			a := &c.intervals[i]
			buf, err = appendIntervalHead(buf, a.Values, a.Lower, a.Upper)
		} else {
			a := &c.answers[i]
			buf, err = appendAnswer(buf, a.Values, a.Score)
		}
		if err != nil {
			return nil, err
		}
		if len(buf) > math.MaxInt32 {
			return nil, errPrefixTooLarge
		}
		ends = append(ends, int32(len(buf)))
	}
	p = &encodedPrefix{buf: buf, ends: ends}
	c.enc.Store(p)
	return p, nil
}

// errPrefixTooLarge guards the int32 offsets of an encoded prefix.
var errPrefixTooLarge = errors.New("encoded answers exceed 2 GiB")

// resultCacheKey derives the result-cache key for one query: the pinned
// version's fingerprint, the method, every request knob that can change
// the answer bytes (schema use, sample count, sampler seed), and the
// normalized query. Fields are joined with NUL — which cannot appear in
// a method name, a formatted integer, or a normalized query — so two
// requests collide exactly when they are semantically equal: same
// version, same method and options, same query up to the parser's
// canonicalization. Workers/parallelism is deliberately absent (scores
// are bit-identical across worker counts), as is "top" (the cache holds
// the full answer list; truncation happens per request).
func resultCacheKey(fingerprint, method, normalized string, ignoreSchema bool, samples int, seed int64) string {
	flag := "s"
	if ignoreSchema {
		flag = "n"
	}
	var b strings.Builder
	b.Grow(len(fingerprint) + len(method) + len(normalized) + 32)
	b.WriteString(fingerprint)
	b.WriteByte(0)
	b.WriteString(method)
	b.WriteByte(0)
	b.WriteString(flag)
	b.WriteByte(0)
	b.WriteString(strconv.Itoa(samples))
	b.WriteByte(0)
	b.WriteString(strconv.FormatInt(seed, 10))
	b.WriteByte(0)
	b.WriteString(normalized)
	return b.String()
}

// putTighter inserts an anytime entry unless the cache already holds a
// tighter one for the key: a degraded wide interval must not overwrite
// the converged narrow interval another request just paid for. The
// width comparison and the insert run atomically inside the cache lock
// (putIf), so two concurrent evaluations of the same key cannot
// interleave and lose the tighter result.
func (s *Server) putTighter(key string, entry *cachedResult) {
	s.results.putIf(key, entry, func(old *cachedResult) bool {
		return old.anytime && old.width <= entry.width
	})
}
