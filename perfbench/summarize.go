package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rdfsum"
	"rdfsum/internal/lubm"
	"rdfsum/internal/rdf"
)

// summaryFacts identify one summary: node and edge counts plus a digest
// of its sorted N-Triples lines (independent of emission order).
type summaryFacts struct {
	nodes, edges int
	digest       string
}

func sortedLineDigest(text []byte) string {
	lines := strings.Split(strings.TrimSpace(string(text)), "\n")
	sort.Strings(lines)
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(h[:])
}

func factsOf(s *rdfsum.Summary) (summaryFacts, error) {
	var buf bytes.Buffer
	if err := rdfsum.WriteNTriples(&buf, s.Graph.Decode()); err != nil {
		return summaryFacts{}, err
	}
	return summaryFacts{nodes: s.Stats.AllNodes, edges: s.Stats.AllEdges, digest: sortedLineDigest(buf.Bytes())}, nil
}

// statsLine matches the CLI's per-kind stats line.
var statsLine = regexp.MustCompile(`^(\S+) summary:\s+data nodes \d+\s+all nodes (\d+)\s+data edges \d+\s+all edges (\d+)`)

// job is one CLI child process's outcome.
type job struct {
	wall  time.Duration
	cpu   time.Duration // user + system (rusage)
	rssMB float64
	out   []byte
}

// runJob runs the rdfsum CLI and waits for it.
func runJob(bin string, args ...string) (job, error) {
	cmd := exec.Command(filepath.Join(bin, "rdfsum"), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	err := cmd.Run()
	j := job{wall: time.Since(t0), out: stdout.Bytes()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru != nil {
		j.rssMB = float64(ru.Maxrss) / 1024 // KiB on Linux
		j.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if err != nil {
		return j, fmt.Errorf("rdfsum %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return j, nil
}

// outputFacts reads one kind's facts from a job's printed stats line and
// written file.
func outputFacts(stdout []byte, kind rdfsum.Kind, path string) (summaryFacts, error) {
	var got summaryFacts
	found := false
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		m := statsLine.FindStringSubmatch(sc.Text())
		if m != nil && m[1] == kind.String() {
			got.nodes, _ = strconv.Atoi(m[2])
			got.edges, _ = strconv.Atoi(m[3])
			found = true
		}
	}
	if !found {
		return got, fmt.Errorf("%s: no stats line in the output", kind)
	}
	text, err := os.ReadFile(path)
	if err != nil {
		return got, err
	}
	got.digest = sortedLineDigest(text)
	return got, nil
}

// checkFacts compares one kind's output facts with the in-process
// reference.
func checkFacts(kind rdfsum.Kind, got, want summaryFacts) error {
	if got != want {
		return fmt.Errorf("%s: got %d nodes, %d edges, digest %.12s; want %d, %d, %.12s",
			kind, got.nodes, got.edges, got.digest, want.nodes, want.edges, want.digest)
	}
	return nil
}

// ranJob is one finished summarize job awaiting its check.
type ranJob struct {
	kind rdfsum.Kind // -1: -all
	job
	got map[rdfsum.Kind]summaryFacts
	err error
}

// runSummarize is lubm-summarize: sequential `rdfsum summarize -all`
// and single-kind jobs over the gzipped LUBM dump, each output checked
// against rdfsum.Summarize computed in-process.
//
// The reference is computed after the jobs have run. A child started
// with os/exec shares the parent's memory until it execs, and Linux
// carries that memory's peak RSS into the child's rusage, so jobs
// started while the loaded reference graph was resident reported
// perfbench's peak as their own.
func runSummarize(r *run) error {
	t0 := time.Now()
	cfg := lubmConfig(r.seed, r.p.universities)
	dump := filepath.Join(r.work, "lubm.nt.gz")
	ds, err := writeDump(dump, func(emit func(rdf.Triple)) { lubm.Generate(cfg, emit) }, nil)
	if err != nil {
		return err
	}
	r.prop("dataset", "LUBM %d universities: %d triples, %d B N-Triples, %d B gzipped (generated in %.2fs)",
		r.p.universities, ds.triples, ds.rawBytes, ds.gzBytes, time.Since(t0).Seconds())
	r.prop("dataset_digest", "%s", ds.digest)
	r.prop("generator_rss_mb", "%.1f (peak of perfbench before the jobs; no job's rusage reads lower)", vmHWM(os.Getpid()))

	// Set-up: converting the dump to a snapshot, the one-off preparation
	// step of the CLI, r.p.setups times.
	var setupS []float64
	rssBy := map[string][]float64{} // peak RSS of each job, by job name
	setups := r.p.setups
	if r.trace {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		j, err := runJob(r.bin, "convert", "-in", dump, "-out", filepath.Join(r.work, "lubm.snapshot"))
		r.count(1, 0)
		if err != nil {
			return err
		}
		setupS = append(setupS, j.wall.Seconds())
		rssBy["convert"] = append(rssBy["convert"], j.rssMB)
	}
	r.prop("setup_runs_s", "%.3f", setupS)

	outDir := filepath.Join(r.work, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// The jobs cycle through -all (kind -1) twice and each single kind
	// once until the measured time is up, at least one full cycle (traced
	// runs: exactly one), so every run has two -all samples.
	k := rdfsum.Kinds
	cycle := []rdfsum.Kind{-1, k[0], k[1], k[2], -1, k[3], k[4]}
	var ran []ranJob
	start := time.Now()
	for i := 0; i < len(cycle) || (!r.trace && time.Since(start) < r.duration()); i++ {
		kind := cycle[i%len(cycle)]
		args := []string{"summarize", "-in", dump}
		kinds := []rdfsum.Kind{kind}
		out := func(k rdfsum.Kind) string { return filepath.Join(outDir, k.String()+".nt") }
		if kind < 0 {
			args = append(args, "-all", "-out", filepath.Join(outDir, "all.nt"))
			kinds = rdfsum.Kinds
			out = func(k rdfsum.Kind) string { return filepath.Join(outDir, "all."+k.String()+".nt") }
		} else {
			args = append(args, "-kind", kind.String(), "-out", out(kind))
		}
		j, err := runJob(r.bin, args...)
		rj := ranJob{kind: kind, job: j, got: map[rdfsum.Kind]summaryFacts{}, err: err}
		for _, k := range kinds {
			if rj.err == nil {
				rj.got[k], rj.err = outputFacts(j.out, k, out(k))
			}
		}
		ran = append(ran, rj)
	}
	r.prop("jobs", "%d jobs in %.2fs", len(ran), time.Since(start).Seconds())

	// Reference, timed as the in-process counterpart of the jobs.
	t0 = time.Now()
	g, err := rdfsum.LoadFile(dump, nil)
	if err != nil {
		return err
	}
	loadTime := time.Since(t0)
	want := map[rdfsum.Kind]summaryFacts{}
	for _, k := range rdfsum.Kinds {
		t0 := time.Now()
		s, err := rdfsum.Summarize(g, k)
		if err != nil {
			return err
		}
		if r.trace {
			r.metric(r.layer, "core.summarize_ms."+k.String(), ms(time.Since(t0)), "ms", 1)
		}
		if want[k], err = factsOf(s); err != nil {
			return err
		}
	}
	if r.trace {
		r.metric(r.layer, "load.mtriples_per_s", float64(g.NumEdges())/loadTime.Seconds()/1e6, "1/s", 1)
		t0 := time.Now()
		if _, err := rdfsum.SummarizeAll(g, rdfsum.Kinds); err != nil {
			return err
		}
		r.metric(r.layer, "core.summarize_all_ms", ms(time.Since(t0)), "ms", 1)
	}

	var all, allCPU latencies
	one, oneCPU := map[rdfsum.Kind]latencies{}, map[rdfsum.Kind]latencies{}
	for _, rj := range ran {
		name := "all"
		if rj.kind >= 0 {
			name = rj.kind.String()
		}
		rssBy[name] = append(rssBy[name], rj.rssMB)
		err := rj.err
		for k, got := range rj.got {
			if err == nil {
				err = checkFacts(k, got, want[k])
			}
		}
		if err != nil {
			r.say("FAIL     %v", err)
			r.count(1, 1)
			continue
		}
		r.count(1, 0)
		if rj.kind < 0 {
			all.add(rj.wall)
			allCPU.add(rj.cpu)
		} else {
			l, c := one[rj.kind], oneCPU[rj.kind]
			l.add(rj.wall)
			c.add(rj.cpu)
			one[rj.kind], oneCPU[rj.kind] = l, c
		}
	}
	var perKind []float64
	// cycleCPU is one cycle's CPU from each job's median: every run is
	// weighted alike however many jobs of each kind it finished.
	cycleCPU := 2 * median(allCPU)
	for _, k := range rdfsum.Kinds {
		r.prop("summarize."+k.String(), "%s cpu_p50=%.3fms", one[k].summary(), median(oneCPU[k]))
		perKind = append(perKind, median(one[k]))
		cycleCPU += median(oneCPU[k])
	}
	r.prop("summarize.all", "%s cpu_p50=%.3fms", all.summary(), median(allCPU))
	allS := median(all) / 1000
	oneS := mean(perKind) / 1000
	r.metric(nil, "summarize_all_s", allS, "s", len(all))
	r.metric(nil, "summarize_one_s", oneS, "s", len(perKind))
	// The peak RSS of a job varies with where its garbage collections
	// fall (the -all jobs' by ±7%, in two clusters), and the largest of
	// all jobs would grow with their number, so the metric is the
	// largest of the per-job-name means.
	var rss float64
	for _, name := range slices.Sorted(maps.Keys(rssBy)) {
		r.prop("rss_mb."+name, "%.1f", rssBy[name])
		rss = max(rss, mean(rssBy[name]))
	}
	r.metric(nil, "rss_peak_mb", rss, "MB", len(ran))
	if r.trace {
		return nil
	}
	r.metric(r.e2e, "cpu_ms_per_op", cycleCPU/float64(len(cycle)), "ms", len(ran))
	r.metric(r.e2e, "setup_s", median(setupS), "s", len(setupS))
	r.metric(r.e2e, "rss_peak_mb", rss, "MB", len(ran))
	return nil
}
