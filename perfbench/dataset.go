package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"lapushdb/internal/store"
)

// The dataset is the chain / star / TPC-H shape of the repository's
// load harness, generated here from the seed so that the benchmark's
// inputs do not change when the program's own generators do. Sizes are
// fixed: a cold chain or TPC-H rank evaluates enough rows that the
// engine, not the HTTP layers, dominates its time, while seeding stays
// a few hundred ingest batches.
const (
	chainN      = 3000 // tuples per chain relation BenchR1..3
	chainDomain = 600  // chain join values are drawn from [0, chainDomain)
	starN       = 1500 // tuples per star relation
	starDomain  = 120
	suppliers   = 1500
	parts       = 4500 // BenchPartsupp holds 2 tuples per part
	nations     = 25
	piMax       = 0.5
	seedBatch   = 64 // mutations per seeding /v1/ingest request
)

// colors is the TPC-H P_NAME word list; part names are three of them.
var colors = strings.Fields(`almond antique aquamarine azure beige bisque black
blanched blue blush brown burlywood burnished chartreuse chiffon chocolate coral
cornflower cornsilk cream cyan dark deep dim dodger drab firebrick floral forest
frosted gainsboro ghost goldenrod green grey honeydew hot indian ivory khaki lace
lavender lawn lemon light lime linen magenta maroon medium metallic midnight mint
misty moccasin navajo navy olive orange orchid pale papaya peach peru pink plum
powder puff purple red rose rosy royal saddle salmon sandy seashell sienna sky
slate smoke snow spring steel tan thistle tomato turquoise violet wheat white
yellow`)

// mix derives a per-index RNG seed from the run seed (splitmix64), so
// every stream element is a pure function of (seed, stream, index).
func mix(seed, stream, i int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(stream)*0xd1b54a32d192ed03 ^ uint64(i+1)*0xbf58476d1ce4b38b
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b38b
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

func rng(seed, stream, i int64) *rand.Rand { return rand.New(rand.NewSource(mix(seed, stream, i))) }

// Stream identifiers for mix: each consumer of randomness draws from
// its own stream so that adding draws to one never shifts another.
const (
	streamData int64 = iota + 1
	streamHot
	streamCold
	streamWrite
	streamRead
	streamPerm
)

// dataset is the generated database content. It is the same for every
// run: the workload seed draws the request streams over it, so that the
// work a run does varies with the seed only as much as the requests do.
type dataset struct {
	// batches is the seeding stream: one batch creating the relations,
	// then the tuples in seedBatch-sized insert batches.
	batches [][]store.Mutation
	// chainR2 lists BenchR2's generated tuples, the relation the
	// ingest_mix writer mutates.
	chainR2 [][]string
}

var relations = []store.Mutation{
	{Op: store.OpCreateRelation, Rel: "BenchR1", Cols: []string{"x0", "x1"}},
	{Op: store.OpCreateRelation, Rel: "BenchR2", Cols: []string{"x1", "x2"}},
	{Op: store.OpCreateRelation, Rel: "BenchR3", Cols: []string{"x2", "x3"}},
	{Op: store.OpCreateRelation, Rel: "BenchS1", Cols: []string{"c", "x1"}},
	{Op: store.OpCreateRelation, Rel: "BenchS2", Cols: []string{"x2"}},
	{Op: store.OpCreateRelation, Rel: "BenchS0", Cols: []string{"x1", "x2"}},
	{Op: store.OpCreateRelation, Rel: "BenchSupplier", Cols: []string{"s", "a"}},
	{Op: store.OpCreateRelation, Rel: "BenchPartsupp", Cols: []string{"s", "u"}},
	{Op: store.OpCreateRelation, Rel: "BenchPart", Cols: []string{"u", "n"}},
}

// dataSeed seeds the dataset.
const dataSeed = 1

func newDataset() *dataset {
	d := &dataset{}
	r := rng(dataSeed, streamData, 0)
	itoa := strconv.Itoa
	var inserts []store.Mutation
	add := func(rel string, vals ...string) []string {
		p := r.Float64() * piMax
		inserts = append(inserts, store.Mutation{Op: store.OpInsert, Rel: rel, Tuple: vals, P: &p})
		return vals
	}
	for i := 1; i <= 3; i++ {
		rel := fmt.Sprintf("BenchR%d", i)
		for t := 0; t < chainN; t++ {
			vals := add(rel, itoa(r.Intn(chainDomain)), itoa(r.Intn(chainDomain)))
			if i == 2 {
				d.chainR2 = append(d.chainR2, vals)
			}
		}
	}
	for t := 0; t < starN; t++ {
		add("BenchS1", "hub", itoa(r.Intn(starDomain)))
		add("BenchS2", itoa(r.Intn(starDomain)))
		add("BenchS0", itoa(r.Intn(starDomain)), itoa(r.Intn(starDomain)))
	}
	for s := 1; s <= suppliers; s++ {
		add("BenchSupplier", itoa(s), "a"+itoa(r.Intn(nations)))
	}
	for u := 1; u <= parts; u++ {
		words := make([]string, 3)
		for i := range words {
			words[i] = colors[r.Intn(len(colors))]
		}
		add("BenchPart", itoa(u), strings.Join(words, " "))
		for i := 0; i < 2; i++ {
			add("BenchPartsupp", itoa(1+(u+i*(suppliers/2+1))%suppliers), itoa(u))
		}
	}
	d.batches = [][]store.Mutation{relations}
	for len(inserts) > 0 {
		n := min(seedBatch, len(inserts))
		d.batches = append(d.batches, inserts[:n])
		inserts = inserts[n:]
	}
	return d
}
