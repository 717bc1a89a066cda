package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rdfsum/client"
)

// server is one rdfsumd child process at its defaults (-max-stale 0,
// -maintain weak, fsync on every batch, weak pruning gate); only -live,
// -addr and -log-level are set.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
	err  error
}

// freeAddr picks a loopback port the server can bind.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// newClient returns a client with its own connection pool, so each
// logical connection of the load generator is one TCP connection.
func newClient(base string) *client.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	cl, err := client.New(base, client.WithHTTPClient(&http.Client{Transport: tr, Timeout: 120 * time.Second}))
	if err != nil {
		panic(err) // base is always a well-formed http URL
	}
	return cl
}

// startServer launches rdfsumd on dir (seeding it from seed when set)
// and waits until /v1/healthz answers.
func startServer(bin, dir, seed string, logTo io.Writer) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-live", dir, "-addr", addr, "-log-level", "warn"}
	if seed != "" {
		args = append(args, "-in", seed)
	}
	cmd := exec.Command(filepath.Join(bin, "rdfsumd"), args...)
	cmd.Stdout = logTo
	cmd.Stderr = logTo
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() { s.err = cmd.Wait(); close(s.done) }()
	cl := newClient(s.base)
	deadline := time.Now().Add(150 * time.Second)
	for {
		select {
		case <-s.done:
			return nil, fmt.Errorf("rdfsumd exited before ready: %v", s.err)
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := cl.Healthz(ctx)
		cancel()
		if err == nil {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("rdfsumd not ready after 150s: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// peakRSSMB reads the server's peak resident set (VmHWM).
func (s *server) peakRSSMB() float64 {
	return vmHWM(s.cmd.Process.Pid)
}

func vmHWM(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// clockTicks is USER_HZ, the unit of /proc/PID/stat's CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPUSeconds reads a process's utime + stime from /proc/PID/stat,
// all threads included. On a guest kernel with paravirtual steal
// accounting, time the host took from the guest is not in it, so it
// does not grow when a shared host is busy the way wall time does.
func procCPUSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime 14, stime 15.
	i := strings.LastIndexByte(string(raw), ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	return float64(utime+stime) / clockTicks, nil
}

// stop terminates the server and waits for it to exit.
func (s *server) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// scrape fetches /v1/metrics and parses the exposition into a map keyed
// by name{labels}.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: %s", resp.Status)
	}
	return parseExposition(resp.Body)
}

func parseExposition(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// histDelta is the change of one histogram between two scrapes.
type histDelta struct {
	count float64
	sum   float64 // seconds
}

func (h histDelta) meanMS() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count * 1000
}

// histDeltas sums the _count/_sum deltas of every series of histogram
// name whose labels contain match (empty = all series).
func histDeltas(before, after map[string]float64, name, match string) histDelta {
	var d histDelta
	for key, v := range after {
		series, ok := strings.CutPrefix(key, name)
		if !ok {
			continue
		}
		var field *float64
		switch {
		case strings.HasPrefix(series, "_count"):
			field = &d.count
		case strings.HasPrefix(series, "_sum"):
			field = &d.sum
		default:
			continue
		}
		if match != "" && !strings.Contains(series, match) {
			continue
		}
		*field += v - before[key]
	}
	return d
}
