package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xquec"
)

// daemon is one xquecd child process serving a repository directory on
// a loopback socket.
type daemon struct {
	cmd    *exec.Cmd
	dir    string // the repository directory it serves
	base   string // http://127.0.0.1:port
	client *http.Client
	log    *os.File
}

// procs is the GOMAXPROCS of the daemon and of this process.
func procs() int { return min(runtime.NumCPU(), 2) }

// startDaemon launches binDir's xquecd over dir and returns once /healthz
// answers.
func startDaemon(binDir, dir string, clients int, extra ...string) (*daemon, error) {
	bin := filepath.Join(binDir, "xquecd")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(filepath.Join(dir, "xquecd.log"))
	if err != nil {
		return nil, err
	}
	args := append([]string{"-repos", dir, "-addr", addr, "-query-parallelism", "1"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs()))
	cmd.Stderr = logf
	// The child must not outlive a driver that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{
		cmd:  cmd,
		dir:  dir,
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: clients + 1, MaxIdleConnsPerHost: clients + 1,
			DisableCompression: true,
		}},
		log: logf,
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("xquecd not ready on %s: %w", addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates the child and waits for it.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	d.log.Close()
}

// cpu is the child's user+sys time so far. The per-task schedstat
// counters have nanosecond resolution; /proc/<pid>/stat, the fallback,
// counts 10 ms ticks.
func (d *daemon) cpu() time.Duration {
	pid := strconv.Itoa(d.cmd.Process.Pid)
	tasks, _ := filepath.Glob("/proc/" + pid + "/task/*/schedstat")
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between Glob and ReadFile
		}
		f := strings.Fields(string(b))
		if len(f) > 0 {
			n, _ := strconv.ParseInt(f[0], 10, 64)
			ns += n
		}
	}
	if ns > 0 {
		return time.Duration(ns)
	}
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the line.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// rssMB is the child's resident set size.
func (d *daemon) rssMB() float64 {
	b, _ := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/status")
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// counters reads the unlabeled samples of GET /metrics.
func (d *daemon) counters() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			// xquecd_repo_segments{repo="auction"} keeps its metric name.
			name, _, _ = strings.Cut(name, "{")
			out[name] = v
		}
	}
	return out, sc.Err()
}

// Request kinds.
const (
	kQuery  = iota // POST /query, JSON reply
	kStream        // POST /query/stream, chunked body + trailers
	kAppend        // POST /append
	kIngest        // in-process Compress + SaveFile, no socket
)

// golden is what a correct reply carries.
type golden struct {
	count int
	sum   [sha256.Size]byte
}

// request is one distinct scripted operation; scripts hold pointers to
// it, so a repeated request is built and its golden computed once.
type request struct {
	kind    int
	label   string // q1, q2, ... for trace rows
	repo    string
	text    string // query text
	body    []byte // marshaled HTTP body
	want    golden
	sampled bool // contributes to the latency percentiles
	// kAppend: the segment count the reply must report.
	segments int
	// kIngest: the document and the repository file it becomes, in the
	// directory the daemon serves.
	doc  []byte
	file string
}

func queryRequest(kind int, label, repo, text string) *request {
	body, _ := json.Marshal(map[string]string{"repo": repo, "query": text})
	return &request{kind: kind, label: label, repo: repo, text: text, body: body, sampled: true}
}

// reply is what the client observed of one operation.
type reply struct {
	lat, first time.Duration
	ok         bool
	why        string // set when !ok
}

var paths = [...]string{kQuery: "/query", kStream: "/query/stream", kAppend: "/append"}

// do performs r against the daemon and checks the reply against r.want.
// buf is the caller's reusable body buffer.
func (d *daemon) do(r *request, buf *bytes.Buffer) (rep reply) {
	start := time.Now()
	if r.kind == kIngest {
		db, err := xquec.Compress(r.doc, xquec.Options{})
		if err == nil {
			err = db.SaveFile(filepath.Join(d.dir, r.file))
		}
		rep.lat = time.Since(start)
		rep.first = rep.lat
		rep.ok = err == nil
		if err != nil {
			rep.why = err.Error()
		}
		return rep
	}
	resp, err := d.client.Post(d.base+paths[r.kind], "application/json", bytes.NewReader(r.body))
	if err != nil {
		rep.why = err.Error()
		return rep
	}
	defer resp.Body.Close()
	buf.Reset()
	var one [1]byte
	if n, _ := resp.Body.Read(one[:]); n == 1 {
		buf.WriteByte(one[0])
	}
	rep.first = time.Since(start)
	_, err = buf.ReadFrom(resp.Body)
	rep.lat = time.Since(start)
	if err != nil {
		rep.why = err.Error()
		return rep
	}
	if resp.StatusCode != http.StatusOK {
		rep.why = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
		return rep
	}
	switch r.kind {
	case kQuery:
		var qr struct {
			Count  int    `json:"count"`
			Result string `json:"result"`
		}
		if err := json.Unmarshal(buf.Bytes(), &qr); err != nil {
			rep.why = err.Error()
			return rep
		}
		if qr.Count != r.want.count || sha256.Sum256([]byte(qr.Result)) != r.want.sum {
			rep.why = fmt.Sprintf("result mismatch: count %d, want %d", qr.Count, r.want.count)
			return rep
		}
	case kStream:
		if e := resp.Trailer.Get("X-Xquec-Error"); e != "" {
			rep.why = e
			return rep
		}
		n, _ := strconv.Atoi(resp.Trailer.Get("X-Xquec-Count"))
		if n != r.want.count || sha256.Sum256(buf.Bytes()) != r.want.sum {
			rep.why = fmt.Sprintf("stream mismatch: count %d, want %d", n, r.want.count)
			return rep
		}
	case kAppend:
		var ar struct {
			Segments int `json:"segments"`
		}
		if err := json.Unmarshal(buf.Bytes(), &ar); err != nil {
			rep.why = err.Error()
			return rep
		}
		if ar.Segments != r.segments {
			rep.why = fmt.Sprintf("append left %d segments, want %d", ar.Segments, r.segments)
			return rep
		}
	}
	rep.ok = true
	return rep
}
