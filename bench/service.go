package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"snd/client"
	"snd/internal/exp"
	"snd/internal/runner"
)

const (
	// clients is the closed loop's concurrency: each client submits its
	// next job only once the previous one is terminal.
	clients = 2
	// repeatEvery makes every 5th submission a resubmission of a job its
	// client already finished, answered from the job table. Repeats are a
	// correctness check of dedup; their latency is the ungated
	// repeat_p50_ms extra, since no end-to-end metric covers them.
	repeatEvery = 5
	pollEvery   = 5 * time.Millisecond
)

// server is a child sndserve.
type server struct {
	cmd     *exec.Cmd
	base    string
	spawned time.Time
	ready   time.Time
	log     *os.File
	waited  bool
}

// startServer execs sndserve on a free loopback port with its state under
// dir, and returns once GET /v1/experiments answers 200.
func startServer(bin, dir string, traced bool) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
	tracebuf := "0"
	if traced {
		tracebuf = "4096"
	}
	logf, err := os.Create(filepath.Join(dir, "sndserve.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-workers", "1",
		"-store", "file://"+filepath.Join(dir, "blobs"),
		"-jobstore", filepath.Join(dir, "jobs.wal"),
		"-tracebuf", tracebuf)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, spawned: time.Now()}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start sndserve: %w", err)
	}
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := s.spawned.Add(20 * time.Second)
	for {
		if resp, err := hc.Get(s.base + "/v1/experiments"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained for connection reuse only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Now()
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("sndserve not ready after 20s; see %s", logf.Name())
		}
		time.Sleep(time.Millisecond)
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop sends SIGTERM (sndserve drains and exits), kills the process if it
// has not exited after 10 s, waits for it and returns its CPU seconds and
// peak RSS. Calling it again returns the same numbers.
func (s *server) stop() (cpuS, rssMB float64) {
	if !s.waited {
		s.waited = true
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // an exited process is reaped below
		done := make(chan struct{})
		go func() {
			_ = s.cmd.Wait() // the exit status of a drained server carries nothing
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			<-done
		}
		s.log.Close()
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return usage(ru)
	}
	return 0, 0
}

// jobRun is one client's record of one fresh job.
type jobRun struct {
	f        int64
	root     int
	params   json.RawMessage
	job      client.Job
	ms       float64
	submitMs float64
	polls    int
	err      error
}

// service runs service-jobs.
func (r *run) service() error {
	dir, err := os.MkdirTemp("", "sndbench-service-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, err := startServer(r.Sndserve, dir, r.Traced)
	if err != nil {
		return err
	}
	defer srv.stop()
	r.res.SetupS = srv.ready.Sub(srv.spawned).Seconds()
	// The reference kernel runs only while sndserve is idle: run next to
	// the load, it would compete with sndserve for the same cores.
	kernel := r.calibrate()
	if r.SetupOnly {
		return nil
	}

	transport := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	defer transport.CloseIdleConnections()
	c := client.New(srv.base, "")
	c.HTTPClient = &http.Client{Timeout: 30 * time.Second, Transport: transport}
	ctx := context.Background()
	m0, err := scrape(ctx, c, srv.base)
	if err != nil {
		return err
	}

	// The clients run in lockstep rounds: in each, every client makes one
	// submission and waits for its job to end. Between rounds sndserve is
	// idle, and the reference kernel takes its sample there.
	var (
		jobs       []*jobRun
		repeatMs   []float64
		repeatErrs []string
		last       [clients]*jobRun
	)
	start := time.Now()
	for k := 0; r.more(k, start); k += clients {
		var (
			fresh  [clients]*jobRun
			repMs  [clients]float64
			repErr [clients]error
			wg     sync.WaitGroup
		)
		t0 := time.Now()
		for i := range clients {
			sub := k + i
			wg.Add(1)
			go func() {
				defer wg.Done()
				if sub%repeatEvery == repeatEvery-1 && last[i] != nil {
					repMs[i], repErr[i] = r.repeat(ctx, c, last[i])
					return
				}
				fresh[i] = r.freshJob(ctx, c, int64(sub-sub/repeatEvery))
			}()
		}
		wg.Wait()
		d := time.Since(t0)
		var done []float64
		for i, j := range fresh {
			if j == nil {
				repeatMs = append(repeatMs, repMs[i])
				if repErr[i] != nil {
					repeatErrs = append(repeatErrs, repErr[i].Error())
				}
				continue
			}
			jobs = append(jobs, j)
			if j.err == nil && j.job.Status == "done" {
				last[i] = j
				done = append(done, j.ms)
			}
		}
		r.segment(d, kernel.run(), done...)
	}
	r.scaleWindow()

	m1, err := scrape(ctx, c, srv.base)
	if err != nil {
		return err
	}
	r.res.Attempted = len(jobs) + len(repeatMs)
	r.res.Failed = len(repeatErrs)
	for _, e := range repeatErrs {
		r.fail("repeat: %s", e)
	}
	var submitMs, queueMs, runMs, polls []float64
	for _, j := range jobs {
		trace := fmt.Sprintf("%s/job/%d", r.Workload, j.f)
		switch {
		case j.err != nil:
			r.opFailed(trace, j.err)
			continue
		case j.job.Status != "done":
			r.opFailed(trace, fmt.Errorf("job %s ended %s: %s", j.job.ID, j.job.Status, j.job.Error))
			continue
		}
		if err := checkPrevention(j.job.Result); err != nil {
			r.fail("%s: %v", trace, err)
		}
		r.res.Trials += r.Size.Trials
		submitMs = append(submitMs, j.submitMs)
		polls = append(polls, float64(j.polls))
		if j.job.Started != nil && j.job.Finished != nil {
			queueMs = append(queueMs, ms(j.job.Started.Sub(j.job.Created)))
			runMs = append(runMs, ms(j.job.Finished.Sub(*j.job.Started)))
		}
		if j.f == 0 {
			r.crossCheck(ctx, j)
		}
	}
	if r.Traced {
		for _, j := range jobs {
			r.attachServerSpans(ctx, c, j)
		}
	}

	delta := func(name string, labels ...string) float64 {
		return sumSeries(m1, name, labels...) - sumSeries(m0, name, labels...)
	}
	if hits := delta("snd_job_dedup_hits_total"); hits != float64(len(repeatMs)) {
		r.fail("sndserve counted %v dedup hits for %d repeats", hits, len(repeatMs))
	}
	compare := `experiment="compare"`
	busy := delta("snd_trial_duration_seconds_sum", compare)
	if n := delta("snd_trial_duration_seconds_count", compare); n > 0 {
		r.res.TrialMs = 1e3 * busy / n
	}
	waitMs, putMs := 0.0, 0.0
	if n := delta("snd_trial_queue_wait_seconds_count", compare); n > 0 {
		waitMs = 1e3 * delta("snd_trial_queue_wait_seconds_sum", compare) / n
	}
	if n := delta("snd_store_op_duration_seconds_count", `op="put"`); n > 0 {
		putMs = 1e3 * delta("snd_store_op_duration_seconds_sum", `op="put"`) / n
	}
	done := float64(len(r.res.OpMs))
	wal := int64(0)
	if fi, err := os.Stat(filepath.Join(dir, "jobs.wal")); err == nil {
		wal = fi.Size()
	}
	r.res.CPUS, r.res.PeakRSSMB = srv.stop()

	r.extra("jobs_per_s", done/r.res.WindowS, "1/s")
	r.extra("job_p90_ms", percentile(r.res.OpMs, 90), "ms")
	r.extra("repeat_p50_ms", median(repeatMs), "ms")
	r.extra("http.submit_ms", median(submitMs), "ms")
	r.extra("http.polls_per_job", mean(polls), "count")
	r.extra("http.dedup_hits", delta("snd_job_dedup_hits_total"), "count")
	r.extra("job.queue_ms", median(queueMs), "ms")
	r.extra("job.run_ms", median(runMs), "ms")
	r.extra("store.put_mean_ms", putMs, "ms")
	r.extra("store.ops_per_job", delta("snd_store_ops_total")/done, "count")
	r.extra("store.wal_bytes_per_job", float64(wal)/done, "B")
	r.extra("sndserve.cpu_s_per_job", r.res.CPUS/done, "s")
	r.extra("runner.queue_wait_mean_ms", waitMs, "ms")
	r.extra("runner.busy_frac", busy/r.res.WindowS, "1")
	return nil
}

// freshJob submits fresh compare job number f and polls it to a terminal
// status.
func (r *run) freshJob(ctx context.Context, c *client.Client, f int64) *jobRun {
	j := &jobRun{f: f, params: compareParams(r.Size, r.Seed+f*int64(r.Size.Trials))}
	trace := fmt.Sprintf("%s/job/%d", r.Workload, f)
	j.root = r.tr.begin(trace, "job", 0)
	defer r.tr.end(j.root)
	start := time.Now()
	sp := r.tr.begin(trace, "http.submit", j.root)
	j.job, j.err = c.SubmitJob(ctx, client.SubmitRequest{Experiment: "compare", Params: j.params})
	r.tr.end(sp)
	j.submitMs = ms(time.Since(start))
	for j.err == nil && !j.job.Terminal() {
		time.Sleep(pollEvery)
		sp := r.tr.begin(trace, "http.poll", j.root)
		j.job, j.err = c.GetJob(ctx, j.job.ID)
		r.tr.end(sp)
		j.polls++
	}
	j.ms = ms(time.Since(start))
	return j
}

// repeat resubmits a finished job; sndserve must answer it from the job
// table with the same, already finished job.
func (r *run) repeat(ctx context.Context, c *client.Client, prev *jobRun) (float64, error) {
	start := time.Now()
	job, err := c.SubmitJob(ctx, client.SubmitRequest{Experiment: "compare", Params: prev.params})
	d := ms(time.Since(start))
	switch {
	case err != nil:
		return d, err
	case job.ID != prev.job.ID || job.Status != "done":
		return d, fmt.Errorf("resubmitting %s returned job %s (%s), want the finished original", prev.job.ID, job.ID, job.Status)
	}
	return d, nil
}

// crossCheck reruns a job's params in this process and requires the same
// result: the service path must not change what the registry computes.
func (r *run) crossCheck(ctx context.Context, j *jobRun) {
	e, _ := exp.Lookup("compare") // registered: sndserve just ran it
	res, err := runCompare(ctx, e, runner.New(runner.Options{Workers: 1}), r.Size, r.Seed)
	if err != nil {
		r.fail("in-process compare: %v", err)
		return
	}
	local, err := json.Marshal(res)
	if err != nil {
		r.fail("encode in-process compare: %v", err)
		return
	}
	if !sameJSON(local, j.job.Result) {
		r.fail("job %s result differs from the same params run in-process", j.job.ID)
	}
}

// sameJSON compares two JSON documents after normalising layout.
func sameJSON(a, b []byte) bool {
	var x, y any
	if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil {
		return false
	}
	na, _ := json.Marshal(x) // decoded JSON always re-encodes
	nb, _ := json.Marshal(y)
	return bytes.Equal(na, nb)
}

// attachServerSpans fetches a job's span tree from sndserve's flight
// recorder and records it under the job's bench span.
func (r *run) attachServerSpans(ctx context.Context, c *client.Client, j *jobRun) {
	if j.job.TraceID == "" || j.root == 0 {
		return
	}
	var doc struct {
		Spans []struct {
			SpanID   string    `json:"span_id"`
			ParentID string    `json:"parent_id"`
			Name     string    `json:"name"`
			Start    time.Time `json:"start"`
			End      time.Time `json:"end"`
		} `json:"spans"`
	}
	if err := c.Do(ctx, http.MethodGet, "/v1/debug/traces?trace="+url.QueryEscape(j.job.TraceID), nil, &doc); err != nil {
		r.fail("job %s trace: %v", j.job.ID, err)
		return
	}
	trace := fmt.Sprintf("%s/job/%d", r.Workload, j.f)
	ids := map[string]int{}
	// Parents precede children in start order; a span whose parent was
	// not recorded hangs off the job's bench span.
	sort.Slice(doc.Spans, func(i, k int) bool { return doc.Spans[i].Start.Before(doc.Spans[k].Start) })
	for _, s := range doc.Spans {
		parent, ok := ids[s.ParentID]
		if !ok {
			parent = j.root
		}
		ids[s.SpanID] = r.tr.add(Span{Parent: parent, Trace: trace, Name: "sndserve." + s.Name, Start: s.Start.UnixNano(), End: s.End.UnixNano()})
	}
}

// scrape reads sndserve's Prometheus exposition into series → value.
func scrape(ctx context.Context, c *client.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTPClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /v1/metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// sumSeries adds every series of family name whose labels include all of
// the given name="value" pairs.
func sumSeries(m map[string]float64, name string, labels ...string) float64 {
	total := 0.0
	for series, v := range m {
		family, lab, _ := strings.Cut(series, "{")
		if family != name {
			continue
		}
		match := true
		for _, l := range labels {
			match = match && strings.Contains(lab, l)
		}
		if match {
			total += v
		}
	}
	return total
}
