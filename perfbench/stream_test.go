package main

import (
	"bytes"
	"testing"

	"lapushdb/internal/store"
)

// streamBytes concatenates every request a workload's plan sends after
// seeding, warm-up included, in order.
func streamBytes(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	p, err := workloads[workload](newDataset(), seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, batch := range p.d.batches {
		b.Write(writeRequest(batch).body)
	}
	for _, ls := range [][]lane{p.warm, p.lanes} {
		for _, l := range ls {
			for _, r := range l.reqs {
				b.WriteString(r.path)
				b.Write(r.body)
				b.WriteByte('\n')
			}
		}
	}
	for _, r := range p.tail {
		b.Write(r.body)
	}
	return b.Bytes()
}

// TestStreamDeterministic pins seed discipline: the same seed gives a
// byte-identical request stream, and another seed a different one.
func TestStreamDeterministic(t *testing.T) {
	for _, w := range workloadNames() {
		a, b := streamBytes(t, w, 1), streamBytes(t, w, 1)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations with seed 1 differ", w)
		}
		if bytes.Equal(a, streamBytes(t, w, 2)) {
			t.Errorf("%s: seeds 1 and 2 give the same stream", w)
		}
	}
}

// TestColdStreamDistinct checks that no two cold_rank queries share a
// result-cache entry: every normalized query text is new.
func TestColdStreamDistinct(t *testing.T) {
	st, err := store.Open(nil, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d := newDataset()
	for _, b := range d.batches {
		if _, err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	reqs, err := coldStream(7, coldWarm+coldRate*20)
	if err != nil {
		t.Fatal(err)
	}
	db := st.Current().DB
	seen := map[string]int{}
	for i, r := range reqs {
		for _, q := range r.queries {
			n, err := db.NormalizeQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			// Anytime results are cached apart from point and batch ones.
			key := n
			if r.kind == kindAnytime {
				key = "anytime\x00" + n
			}
			if j, ok := seen[key]; ok {
				t.Fatalf("requests %d and %d share the query %s", j, i, n)
			}
			seen[key] = i
		}
	}
}

// TestDigestSkipsVolatileFields checks that cache labels and timings do
// not change a response digest while answers do.
func TestDigestSkipsVolatileFields(t *testing.T) {
	a := []byte(`{"answers":[{"values":["1"],"score":0.5}],"count":1,"cache":"miss","result_cache":"miss","elapsed_ms":1.25,"partitions":3}` + "\n")
	b := []byte(`{"answers":[{"values":["1"],"score":0.5}],"count":1,"cache":"hit","result_cache":"hit","elapsed_ms":0.01,"partitions":0}` + "\n")
	c := []byte(`{"answers":[{"values":["1"],"score":0.25}],"count":1,"cache":"hit","result_cache":"hit","elapsed_ms":0.01,"partitions":0}` + "\n")
	if digest(a) != digest(b) {
		t.Error("volatile fields change the digest")
	}
	if digest(b) == digest(c) {
		t.Error("a different score leaves the digest unchanged")
	}
}
