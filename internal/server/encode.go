package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"
)

// Response encoding for /v1/query and /v1/rank_batch. These bodies are
// written by a small appender instead of encoding/json: the answers of a
// cached result are encoded once, into the entry's memoized prefix (see
// results.go), and every later response splices those bytes in. The
// output is byte-identical to encoding/json with SetEscapeHTML(false)
// on the response structs the wire format was defined by, trailing
// newline included; FuzzAnswerEncoding and the byte-identity tests pin
// that.

// errNonFinite rejects NaN and ±Inf, which JSON cannot represent
// (encoding/json fails with an UnsupportedValueError for them).
var errNonFinite = errors.New("unsupported value")

// appendFloat appends f the way encoding/json formats a float64: the
// shortest representation that round-trips, in exponent form below
// 1e-6 and from 1e21 up, with a two-digit negative exponent trimmed to
// one digit (1e-07 becomes 1e-7).
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("%w: %s", errNonFinite, strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does
// with HTML escaping off: '"' and '\\' and control characters are
// escaped (with the short forms for \b \f \n \r \t), invalid UTF-8
// bytes become \ufffd, and U+2028/U+2029 are escaped; '<', '>' and '&'
// pass through.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendStrings appends a JSON array of strings; nil encodes as null,
// as encoding/json encodes a nil slice.
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// appendAnswer appends one point answer: {"values":[...],"score":S}.
func appendAnswer(dst []byte, values []string, score float64) ([]byte, error) {
	dst = append(dst, `{"values":`...)
	dst = appendStrings(dst, values)
	dst = append(dst, `,"score":`...)
	dst, err := appendFloat(dst, score)
	return append(dst, '}'), err
}

// appendIntervalHead appends one anytime answer up to, and not
// including, its "converged" value:
// {"values":[...],"score":U,"interval":{"lower":L,"upper":U,"converged":
// The score echoes the upper bound. The caller finishes the answer with
// convergedTail, whose literal depends on the requested epsilon.
func appendIntervalHead(dst []byte, values []string, lower, upper float64) ([]byte, error) {
	dst = append(dst, `{"values":`...)
	dst = appendStrings(dst, values)
	dst = append(dst, `,"score":`...)
	dst, err := appendFloat(dst, upper)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"interval":{"lower":`...)
	if dst, err = appendFloat(dst, lower); err != nil {
		return dst, err
	}
	dst = append(dst, `,"upper":`...)
	if dst, err = appendFloat(dst, upper); err != nil {
		return dst, err
	}
	return append(dst, `,"converged":`...), nil
}

// convergedTail closes an anytime answer opened by appendIntervalHead.
func convergedTail(converged bool) []byte {
	if converged {
		return tailTrue
	}
	return tailFalse
}

var tailTrue, tailFalse = []byte("true}}"), []byte("false}}")

// body is one /v1/query or /v1/rank_batch response under assembly: the
// envelope bytes in buf, with runs of cached answers spliced in at
// recorded offsets. The answers are never copied into buf, so no
// per-request buffer grows with the answer count; the body is sized
// before it is written, which gives the response its Content-Length.
// The first failure (a non-finite number) is kept in err and turns the
// response into a 500.
type body struct {
	buf  []byte
	runs []answerRun
	err  error
}

func newBody() *body { return &body{buf: make([]byte, 0, 256)} }

func (b *body) raw(s string)  { b.buf = append(b.buf, s...) }
func (b *body) str(s string)  { b.buf = appendString(b.buf, s) }
func (b *body) int(n int64)   { b.buf = strconv.AppendInt(b.buf, n, 10) }
func (b *body) uint(n uint64) { b.buf = strconv.AppendUint(b.buf, n, 10) }
func (b *body) bool(v bool)   { b.buf = strconv.AppendBool(b.buf, v) }

// fail keeps the body's first encoding failure.
func (b *body) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

func (b *body) float(f float64) {
	var err error
	if b.buf, err = appendFloat(b.buf, f); err != nil {
		b.fail(err)
	}
}

// answers splices the first n answers of c (n <= c.len()), rendering
// anytime convergence against eps.
func (b *body) answers(c *cachedResult, n int, eps float64) {
	if n == 0 {
		return
	}
	p, err := c.prefix(n)
	if err != nil {
		b.fail(err)
		return
	}
	b.runs = append(b.runs, answerRun{at: len(b.buf), c: c, p: p, n: n, eps: eps})
}

// send writes the assembled body as a 200 with its Content-Length, or
// the typed internal error when any part failed to encode.
func (b *body) send(w http.ResponseWriter) {
	if b.err != nil {
		writeEncodeError(w, b.err)
		return
	}
	size := len(b.buf)
	for _, r := range b.runs {
		size += r.size()
	}
	startJSON(w, http.StatusOK, size)
	// Write errors mean the client went away mid-response; there is no
	// one left to tell.
	at := 0
	for _, r := range b.runs {
		_, _ = w.Write(b.buf[at:r.at])
		r.writeTo(w)
		at = r.at
	}
	_, _ = w.Write(b.buf[at:])
}

// answerRun is the first n answers of one cached result, spliced into
// a body at offset at.
type answerRun struct {
	at  int
	c   *cachedResult
	p   *encodedPrefix
	n   int
	eps float64
}

func (r answerRun) size() int {
	size := int(r.p.ends[r.n-1])
	if r.c.anytime {
		for i := 0; i < r.n; i++ {
			size += len(convergedTail(r.c.converged(i, r.eps)))
		}
	}
	return size
}

// writeTo writes the run: a point run is one slice of the prefix; an
// anytime run alternates each answer's cached head with its converged
// literal.
func (r answerRun) writeTo(w http.ResponseWriter) {
	if !r.c.anytime {
		_, _ = w.Write(r.p.buf[:r.p.ends[r.n-1]])
		return
	}
	start := int32(0)
	for i := 0; i < r.n; i++ {
		end := r.p.ends[i]
		_, _ = w.Write(r.p.buf[start:end])
		_, _ = w.Write(convergedTail(r.c.converged(i, r.eps)))
		start = end
	}
}
