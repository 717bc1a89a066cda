package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"rdfsum"
	"rdfsum/internal/bsbm"
	"rdfsum/internal/rdf"
)

// Request classes of the BSBM read mix.
type class int

const (
	classLookup   class = iota // offers, vendors and prices of one product
	classReviews               // reviews of one product
	classAnalytic              // a bsbmQueryMix BGP, row-capped
	classEmpty                 // a bsbmEmptyMix BGP, pruned by the weak gate
	classSummary               // GET /v1/summary of one kind
	numClasses
)

var classNames = [numClasses]string{"lookup", "reviews", "analytic", "empty", "summary"}

func (c class) String() string { return classNames[c] }

const bsbmPrefix = "PREFIX bsbm: <" + bsbm.NS + ">\n"

// analyticMix is the repository's bsbmQueryMix (bench_test.go): star
// joins over offers, chain joins through reviews, a typed lookup.
var analyticMix = []string{
	bsbmPrefix + `SELECT ?p ?v WHERE { ?o bsbm:product ?p . ?o bsbm:vendor ?v . ?r bsbm:reviewFor ?p . ?r bsbm:rating1 ?score }`,
	bsbmPrefix + `SELECT ?p ?c WHERE { ?p bsbm:producer ?pr . ?o bsbm:product ?p . ?o bsbm:price ?c }`,
	bsbmPrefix + `SELECT ?r ?d WHERE { ?r bsbm:reviewFor ?p . ?r bsbm:reviewDate ?d }`,
	bsbmPrefix + `PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?p WHERE { ?p rdf:type bsbm:Product . ?p bsbm:producer ?x }`,
}

// emptyMix is the repository's bsbmEmptyMix: property combinations that
// cross disjoint entity kinds, provably empty on the weak summary.
var emptyMix = []string{
	bsbmPrefix + `SELECT ?o WHERE { ?o bsbm:price ?x . ?o bsbm:reviewDate ?d }`,
	bsbmPrefix + `SELECT ?p WHERE { ?p bsbm:producer ?x . ?p bsbm:reviewFor ?r }`,
	bsbmPrefix + `SELECT ?o WHERE { ?o bsbm:vendor ?v . ?o bsbm:rating1 ?s }`,
}

// offersQuery lists every offer: the end-of-run probe that sees each
// added and deleted offer.
const offersQuery = bsbmPrefix + `PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?o WHERE { ?o rdf:type bsbm:Offer }`

func productIRI(i int) string { return fmt.Sprintf("%sProduct%d", bsbm.InstNS, i) }

func lookupQuery(product int) string {
	return bsbmPrefix + fmt.Sprintf(`SELECT ?o ?v ?c WHERE { ?o bsbm:product <%s> . ?o bsbm:vendor ?v . ?o bsbm:price ?c }`, productIRI(product))
}

func reviewsQuery(product int) string {
	return bsbmPrefix + fmt.Sprintf(`SELECT ?r ?d ?u WHERE { ?r bsbm:reviewFor <%s> . ?r bsbm:reviewDate ?d . ?r bsbm:reviewer ?u }`, productIRI(product))
}

// request is one operation of the read stream.
type request struct {
	class class
	text  string // query text; summary kind name for classSummary
}

// popularity draws products Zipf(s=1.1) over a seed-specific ranking,
// so each seed has its own hot set.
type popularity struct {
	zipf *rand.Zipf
	rank []int
}

// A nil rng gives a ranking without draws.
func newPopularity(rng *rand.Rand, seed uint64, products int) *popularity {
	perm := rand.New(rand.NewPCG(seed, 0x7065726d)).Perm(products)
	if rng == nil {
		return &popularity{rank: perm}
	}
	imax := uint64(products - 1)
	if imax == 0 {
		imax = 1
	}
	return &popularity{zipf: rand.NewZipf(rng, 1.1, 1, imax), rank: perm}
}

func (p *popularity) draw() int { return p.rank[int(p.zipf.Uint64())%len(p.rank)] }

// mixBlock is the read mix per block of 20 requests: 60% lookup, 15%
// reviews, 15% analytic, 10% empty. Each block is shuffled, so the mix is
// exact every 20 requests and a run's class counts do not vary by seed.
var mixBlock = []class{
	classLookup, classLookup, classLookup, classLookup, classLookup, classLookup,
	classLookup, classLookup, classLookup, classLookup, classLookup, classLookup,
	classReviews, classReviews, classReviews,
	classAnalytic, classAnalytic, classAnalytic,
	classEmpty, classEmpty,
}

// readStream is one connection's seeded request sequence: the read mix
// in shuffled blocks, analytic and empty queries taking their mixes'
// BGPs in turn, and — when summaryEvery > 0 — every summaryEvery-th
// request a summary of the next kind in rotation.
type readStream struct {
	rng          *rand.Rand
	pop          *popularity
	summaryEvery int
	n            int
	block        []class
	turn         [numClasses]int
}

func newReadStream(seed uint64, conn, products, summaryEvery int) *readStream {
	rng := rand.New(rand.NewPCG(seed, 0x72656164+uint64(conn)))
	return &readStream{rng: rng, pop: newPopularity(rng, seed, products), summaryEvery: summaryEvery}
}

func (s *readStream) next() request {
	s.n++
	if s.summaryEvery > 0 && s.n%s.summaryEvery == 0 {
		return request{class: classSummary, text: rdfsum.Kinds[s.take(classSummary)%len(rdfsum.Kinds)].String()}
	}
	if len(s.block) == 0 {
		s.block = append(s.block, mixBlock...)
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	c := s.block[0]
	s.block = s.block[1:]
	switch c {
	case classLookup:
		return request{class: c, text: lookupQuery(s.pop.draw())}
	case classReviews:
		return request{class: c, text: reviewsQuery(s.pop.draw())}
	case classAnalytic:
		return request{class: c, text: analyticMix[s.take(c)%len(analyticMix)]}
	default:
		return request{class: c, text: emptyMix[s.take(c)%len(emptyMix)]}
	}
}

// take returns how many requests of class c came before this one.
func (s *readStream) take(c class) int {
	s.turn[c]++
	return s.turn[c] - 1
}

// batch is one write of the open-loop writer.
type batch struct {
	due     time.Duration // offset from the phase start at which it is sent
	del     bool
	triples []rdf.Triple
	body    string // the triples as N-Triples text
}

// Entities the writer adds: 5 triples each, so a batch of 200 triples
// carries 20 offers and 20 reviews.
const entityTriples = 5

// writeStream is the writer's seeded batch sequence: new offers and
// reviews on Zipf-drawn products, and every 5th batch a delete of the
// oldest offers added and not yet deleted.
type writeStream struct {
	rng      *rand.Rand
	pop      *popularity
	every    time.Duration
	size     int
	n        int
	nextID   int
	pending  [][]rdf.Triple // added offers, oldest first
	products int
}

// The writer's Zipf ranking is its own (seed^writeRanking), independent
// of the readers', so lookups do not return ever more rows as the run
// goes on.
func newWriteStream(seed uint64, products, batchTriples int, every time.Duration) *writeStream {
	rng := rand.New(rand.NewPCG(seed, 0x77726974))
	return &writeStream{rng: rng, pop: newPopularity(rng, seed^writeRanking, products), every: every, size: batchTriples, products: products}
}

const writeRanking = 0x5752495445

func (w *writeStream) next() batch {
	b := batch{due: time.Duration(w.n) * w.every}
	w.n++
	per := w.size / entityTriples
	if w.n%5 == 0 && len(w.pending) > 0 {
		b.del = true
		k := min(per, len(w.pending))
		for _, offer := range w.pending[:k] {
			b.triples = append(b.triples, offer...)
		}
		w.pending = w.pending[k:]
	} else {
		for i := 0; i < per; i++ {
			p := rdf.NewIRI(productIRI(w.pop.draw()))
			id := w.nextID
			w.nextID++
			if i%2 == 0 {
				offer := w.offer(id, p)
				w.pending = append(w.pending, offer)
				b.triples = append(b.triples, offer...)
			} else {
				b.triples = append(b.triples, w.review(id, p)...)
			}
		}
	}
	var sb strings.Builder
	for _, t := range b.triples {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	b.body = sb.String()
	return b
}

func (w *writeStream) offer(id int, product rdf.Term) []rdf.Triple {
	o := rdf.NewIRI(fmt.Sprintf("%sbench/Offer%d", bsbm.InstNS, id))
	price := rdf.NewTypedLiteral(fmt.Sprintf("%d.%02d", w.rng.IntN(3000), w.rng.IntN(100)), rdf.XSDDecimal)
	return []rdf.Triple{
		{S: o, P: rdf.Type(), O: bsbm.OfferClass},
		{S: o, P: bsbm.OfferProduct, O: product},
		{S: o, P: bsbm.OfferVendor, O: rdf.NewIRI(fmt.Sprintf("%sVendor%d", bsbm.InstNS, w.rng.IntN(w.products/50+1)))},
		{S: o, P: bsbm.Price, O: price},
		{S: o, P: bsbm.DeliveryDays, O: rdf.NewTypedLiteral(fmt.Sprint(w.rng.IntN(14)+1), rdf.XSDInteger)},
	}
}

func (w *writeStream) review(id int, product rdf.Term) []rdf.Triple {
	r := rdf.NewIRI(fmt.Sprintf("%sbench/Review%d", bsbm.InstNS, id))
	day := w.rng.IntN(360)
	return []rdf.Triple{
		{S: r, P: rdf.Type(), O: bsbm.ReviewClass},
		{S: r, P: bsbm.ReviewFor, O: product},
		{S: r, P: bsbm.Reviewer, O: rdf.NewIRI(fmt.Sprintf("%sPerson%d", bsbm.InstNS, w.rng.IntN(w.products/20+1)))},
		{S: r, P: bsbm.ReviewDate, O: rdf.NewTypedLiteral(fmt.Sprintf("2008-%02d-%02d", day%12+1, day%28+1), rdf.XSDDate)},
		{S: r, P: bsbm.RatingN(1), O: rdf.NewTypedLiteral(fmt.Sprint(w.rng.IntN(10)+1), rdf.XSDInteger)},
	}
}
