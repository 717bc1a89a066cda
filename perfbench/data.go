package main

import (
	"bufio"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"

	"rdfsum/internal/bsbm"
	"rdfsum/internal/lubm"
	"rdfsum/internal/query"
	"rdfsum/internal/rdf"
)

// dataset describes one generated dump: a gzipped N-Triples file.
type dataset struct {
	path     string
	triples  int
	rawBytes int64  // uncompressed N-Triples bytes
	gzBytes  int64  // bytes on disk
	digest   string // sha256 of the uncompressed N-Triples text
}

// bsbmConfig is the BSBM generator configuration at a workload seed.
func bsbmConfig(seed uint64, products int) bsbm.Config {
	cfg := bsbm.DefaultConfig(products)
	cfg.Seed = seed
	return cfg
}

// lubmConfig is the LUBM generator configuration at a workload seed.
func lubmConfig(seed uint64, universities int) lubm.Config {
	cfg := lubm.DefaultConfig(universities)
	cfg.Seed = seed
	return cfg
}

// writeDump streams a generator's triples into path as gzipped
// N-Triples, handing each triple to observe (may be nil) as it goes.
func writeDump(path string, generate func(emit func(rdf.Triple)), observe func(rdf.Triple)) (dataset, error) {
	f, err := os.Create(path)
	if err != nil {
		return dataset{}, err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return dataset{}, err
	}
	bw := bufio.NewWriterSize(zw, 1<<16)
	h := sha256.New()
	ds := dataset{path: path}
	generate(func(t rdf.Triple) {
		line := t.String() + "\n"
		bw.WriteString(line)
		h.Write([]byte(line))
		ds.triples++
		ds.rawBytes += int64(len(line))
		if observe != nil {
			observe(t)
		}
	})
	if err := bw.Flush(); err != nil {
		return dataset{}, err
	}
	if err := zw.Close(); err != nil {
		return dataset{}, err
	}
	st, err := f.Stat()
	if err != nil {
		return dataset{}, err
	}
	ds.gzBytes = st.Size()
	ds.digest = hex.EncodeToString(h.Sum(nil))
	return ds, f.Close()
}

// refIndex is the benchmark's own reference evaluator: a hash index over
// the string-level triples of the predicates the workload's queries
// name, evaluated by plain backtracking. It shares no code with the
// engine under test beyond the query parser, and the package tests tie
// it to internal/refimpl.Eval.
type refIndex struct {
	byPS map[[2]string][]string // (p, s) -> objects
	byPO map[[2]string][]string // (p, o) -> subjects
	byP  map[string][][2]string // p -> (s, o)
	keep map[string]bool        // indexed predicates (nil = all)
}

func newRefIndex(preds []string) *refIndex {
	r := &refIndex{
		byPS: map[[2]string][]string{},
		byPO: map[[2]string][]string{},
		byP:  map[string][][2]string{},
	}
	if preds != nil {
		r.keep = map[string]bool{}
		for _, p := range preds {
			r.keep[p] = true
		}
	}
	return r
}

// add indexes a triple, skipping predicates no query names.
func (r *refIndex) add(t rdf.Triple) {
	s, p, o := t.S.String(), t.P.String(), t.O.String()
	if r.keep != nil && !r.keep[p] {
		return
	}
	r.byPS[[2]string{p, s}] = append(r.byPS[[2]string{p, s}], o)
	r.byPO[[2]string{p, o}] = append(r.byPO[[2]string{p, o}], s)
	r.byP[p] = append(r.byP[p], [2]string{s, o})
}

// eval answers a BGP whose predicates are all constants, returning the
// distinct projected rows as tab-joined canonical term strings, sorted —
// the same form internal/refimpl.Eval returns.
func (r *refIndex) eval(q *query.Query) ([]string, error) {
	head := q.Distinguished
	if len(head) == 0 {
		head = q.Vars()
	}
	for _, p := range q.Patterns {
		if p.P.IsVar {
			return nil, fmt.Errorf("reference: variable predicate in %s", p)
		}
		if r.keep != nil && !r.keep[p.P.Value.String()] {
			return nil, fmt.Errorf("reference: predicate %s not indexed", p.P.Value)
		}
	}
	bind := map[string]string{}
	rows := map[string]bool{}
	value := func(t query.Term) (string, bool) {
		if !t.IsVar {
			return t.Value.String(), true
		}
		v, ok := bind[t.Var]
		return v, ok
	}
	var rec func(i int)
	rec = func(i int) {
		if i == len(q.Patterns) {
			parts := make([]string, len(head))
			for j, v := range head {
				parts[j] = bind[v]
			}
			rows[strings.Join(parts, "\t")] = true
			return
		}
		pat := q.Patterns[i]
		p := pat.P.Value.String()
		try := func(s, o string) {
			var set []string
			for _, x := range []struct {
				t query.Term
				v string
			}{{pat.S, s}, {pat.O, o}} {
				if !x.t.IsVar {
					continue
				}
				if cur, ok := bind[x.t.Var]; ok {
					if cur != x.v {
						for _, name := range set {
							delete(bind, name)
						}
						return
					}
					continue
				}
				bind[x.t.Var] = x.v
				set = append(set, x.t.Var)
			}
			rec(i + 1)
			for _, name := range set {
				delete(bind, name)
			}
		}
		s, sBound := value(pat.S)
		o, oBound := value(pat.O)
		switch {
		case sBound:
			for _, obj := range r.byPS[[2]string{p, s}] {
				if !oBound || obj == o {
					try(s, obj)
				}
			}
		case oBound:
			for _, subj := range r.byPO[[2]string{p, o}] {
				try(subj, o)
			}
		default:
			for _, so := range r.byP[p] {
				try(so[0], so[1])
			}
		}
	}
	rec(0)
	out := make([]string, 0, len(rows))
	for row := range rows {
		out = append(out, row)
	}
	sort.Strings(out)
	return out, nil
}

// canonRows renders a result table in the reference's form: each row's
// cells tab-joined, the rows sorted.
func canonRows(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = strings.Join(row, "\t")
	}
	sort.Strings(out)
	return out
}

// queryPredicates lists the constant predicates the texts name.
func queryPredicates(texts []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	for _, text := range texts {
		q, err := query.Parse(text)
		if err != nil {
			return nil, err
		}
		for _, p := range q.Patterns {
			if !p.P.IsVar && !seen[p.P.Value.String()] {
				seen[p.P.Value.String()] = true
				out = append(out, p.P.Value.String())
			}
		}
	}
	sort.Strings(out)
	return out, nil
}
