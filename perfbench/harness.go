package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"lapushdb/internal/server"
	"lapushdb/internal/store"
)

// node is one lapushd handler stack over a durable store, served on a
// loopback port, with the client that drives it.
type node struct {
	dir    string
	st     *store.Store
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	closed bool
}

// boot opens a durable store in dir with lapushd's production defaults
// (WAL fsync on every batch, a checkpoint every 256 batches) and serves
// the real handler stack over loopback. wrap, when non-nil, wraps the
// server's handler (the traced run) and rt the client transport.
func boot(dir string, wrap func(http.Handler) http.Handler, rt func(http.RoundTripper) http.RoundTripper) (*node, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := store.Open(nil, store.Options{Dir: dir, Fsync: store.FsyncAlways, CheckpointEvery: 256})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	srv := server.NewWithStore(st, server.Config{Logf: func(string, ...any) {}})
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(h)
	}
	n := &node{
		dir: dir, st: st, srv: srv,
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
	}
	go func() { n.served <- n.hs.Serve(ln) }()
	var tr http.RoundTripper = &http.Transport{
		DisableCompression: true,
		IdleConnTimeout:    time.Minute,
	}
	if rt != nil {
		tr = rt(tr)
	}
	n.client = &http.Client{Transport: tr, Timeout: time.Minute}
	return n, nil
}

// close stops the HTTP server, the request path and the store, and
// waits for the serving goroutine to end.
func (n *node) close() error {
	if n.closed {
		return nil
	}
	n.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	if serr := <-n.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	n.client.CloseIdleConnections()
	n.srv.Close()
	if cerr := n.st.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// result is what one request left behind: no body, only a digest.
type result struct {
	status int
	dur    time.Duration
	size   int
	digest uint64
	// wellFormed records whether a read's body parsed as JSON (ingest_mix
	// reads, whose answers depend on the interleaving with writes).
	wellFormed bool
	err        error
}

var digestSeed = maphash.MakeSeed()

// volatileKeys are response fields that legitimately differ between two
// answers to the same request: timings, cache labels and work counters.
// The digest skips them so that a request's answer digest is the same
// whether it was computed or served from a cache.
var volatileKeys = [][]byte{
	[]byte(`"elapsed_ms":`), []byte(`"cache":`), []byte(`"result_cache":`),
	[]byte(`"partitions":`), []byte(`"shared_subplan_hits":`),
}

// digest hashes a response body without its volatile fields.
func digest(b []byte) uint64 {
	var h maphash.Hash
	h.SetSeed(digestSeed)
	start := 0
	for i := 0; i < len(b); i++ {
		if b[i] != '"' {
			continue
		}
		for _, k := range volatileKeys {
			if !bytes.HasPrefix(b[i:], k) {
				continue
			}
			h.Write(b[start:i])
			j := i + len(k)
			if j < len(b) && b[j] == '"' {
				j++
				for j < len(b) && b[j] != '"' {
					j++
				}
				j++
			} else {
				for j < len(b) && b[j] != ',' && b[j] != '}' {
					j++
				}
			}
			if j < len(b) && b[j] == ',' {
				j++
			}
			start, i = j, j-1
			break
		}
	}
	h.Write(b[start:])
	return h.Sum64()
}

// do issues one request and keeps its digest. buf is the caller's
// reusable body buffer.
func (n *node) do(ctx context.Context, req *request, id int, buf *bytes.Buffer) (result, []byte) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, n.url+req.path, bytes.NewReader(req.body))
	if err != nil {
		return result{err: err}, nil
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(requestIDHeader, strconv.Itoa(id))
	begin := time.Now()
	resp, err := n.client.Do(hr)
	if err != nil {
		return result{err: err, dur: time.Since(begin)}, nil
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	res := result{status: resp.StatusCode, dur: time.Since(begin), size: buf.Len(), err: err}
	res.digest = digest(buf.Bytes())
	return res, buf.Bytes()
}

// requestIDHeader carries the request's ID (lane<<24 | index in lane),
// so the traced run can join the server-side span to the client's.
const requestIDHeader = "X-Perfbench-Request"
