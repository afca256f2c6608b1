package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/clapd"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/races"
	"repro/internal/trace"
)

const (
	// clients is the number of closed-loop uploaders. One, not two: with
	// two, the jobs of both clients race their portfolios against each
	// other on two cores, and racey's latency splits into two modes
	// (about 0.6 s and 1.3 s) whose shares swing from run to run, so no
	// run-to-run bound holds; with one it stays near 1.1 s.
	clients = 1
	// pollEvery is the clients' job-state polling interval.
	pollEvery = 2 * time.Millisecond
)

// service is the clapd path: bundles built in set-up from local
// recordings are uploaded to an in-process daemon with the default
// configuration, served on loopback by its real HTTP handler.
type service struct {
	dir   string
	guard guard
	// bundles holds each program's upload, by program, and reps their
	// portfolio reproductions for the traced run's probes.
	bundles map[string]*bundle
	reps    map[string]*core.Reproduction
	opened  int
}

// bundle is one program's recording and its encoded upload.
type bundle struct {
	rec *core.Recording
	raw []byte
	// logBytes is the size of the bundle's framed path log.
	logBytes int
}

// pool is the one member `clap bench` hunts from: the passes re-upload
// the set-up's bundles, so every job is the same upload to a fresh daemon.
func (w *service) pool() pool { return pool{size: 1} }

// setup compiles and records every program, builds the bundles a client
// uploads, and opens and shuts down a daemon once.
func (w *service) setup() (map[string]fingerprint, error) {
	w.bundles = map[string]*bundle{}
	prints := map[string]fingerprint{}
	for _, b := range bench.All() {
		prog, err := core.Compile(b.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		rec, err := core.Record(prog, core.RecordOptions{
			Model: b.Model, Inputs: b.Inputs, Seed: huntSeed(0), SeedLimit: b.SeedLimit,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		bun := clapd.FromRecording(rec, b.Source, b.Name, "")
		raw, err := bun.Encode()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		fp := fingerprintOf(rec.Seed, bun.Log)
		if err := w.guard.check(b.Name, 0, fp); err != nil {
			return nil, err
		}
		prints[b.Name] = fp
		w.bundles[b.Name] = &bundle{rec: rec, raw: raw, logBytes: len(bun.Log)}
	}
	d, dir, err := w.open(nil)
	if err != nil {
		return nil, err
	}
	return prints, w.shut(d, dir)
}

// open starts a daemon on a fresh state directory.
func (w *service) open(logw io.Writer) (*clapd.Daemon, string, error) {
	w.opened++
	dir := filepath.Join(w.dir, fmt.Sprintf("clapd-%d-%d", os.Getpid(), w.opened))
	if err := os.RemoveAll(dir); err != nil {
		return nil, "", err
	}
	d, err := clapd.Open(clapd.Config{Dir: dir, LogWriter: logw})
	return d, dir, err
}

func (w *service) shut(d *clapd.Daemon, dir string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.Shutdown(ctx)
	return errors.Join(err, os.RemoveAll(dir))
}

// syncBuffer is an io.Writer safe for the daemon's concurrent logging.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// upload is one job's client-side record, kept for the traced run.
type upload struct {
	prog, digest string
	job          int
	// root and ingest are the job's span ids.
	root, ingest  int
	metricsReport *obs.Report
}

// pass opens a daemon on a fresh state directory, so every job is a
// cold miss, and lets the clients work through order. Only the clients'
// work is timed.
func (w *service) pass(order []bench.Benchmark, _ int, tr *tracer, firstJob int) ([]jobResult, time.Duration, error) {
	var logw *syncBuffer
	var lw io.Writer // a nil interface when untraced: the default Config
	if tr != nil {
		logw = &syncBuffer{}
		lw = logw
	}
	d, dir, err := w.open(lw)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, errors.Join(err, w.shut(d, dir))
	}
	srv := &http.Server{Handler: d.Handler()}
	var serve sync.WaitGroup
	serve.Add(1)
	go func() {
		defer serve.Done()
		srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	transport := &http.Transport{MaxIdleConnsPerHost: clients}
	client := &http.Client{Transport: transport, Timeout: 5 * time.Minute}
	base := "http://" + ln.Addr().String()

	jobs := make(chan int)
	results := make([]jobResult, len(order))
	uploads := make([]upload, len(order))
	errs := make([]error, len(order))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i], uploads[i], errs[i] = w.job(client, base, order[i], tr, firstJob+i)
			}
		}()
	}
	for i := range order {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start)
	retries := d.Trace().Reg().Get("clapd.jobs.retried")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = errors.Join(errors.Join(errs...), srv.Shutdown(ctx))
	serve.Wait()
	transport.CloseIdleConnections()
	err = errors.Join(err, w.shut(d, dir))
	if err != nil {
		return results, wall, err
	}
	if retries > 0 {
		// A daemon-wide count: the pass's first job carries it.
		results[0].counts["clapd.retries"] = float64(retries)
	}
	if tr != nil {
		err = addDaemonSpans(tr, logw, uploads)
	}
	return results, wall, err
}

// job uploads one bundle, polls until the job is terminal, checks its
// result, and times one re-upload of the same bundle, which the daemon
// must serve from its store.
func (w *service) job(c *http.Client, base string, b bench.Benchmark, tr *tracer, id int) (jobResult, upload, error) {
	bun := w.bundles[b.Name]
	res := jobResult{prog: b.Name, job: id, logBytes: bun.logBytes, counts: map[string]float64{
		"ir.instrs": float64(instrCount(bun.rec.Prog)),
	}}
	up := upload{prog: b.Name, job: id}
	raw := bun.raw
	start := time.Now()
	up.root = tr.begin("job", id, -1, b.Name)
	up.ingest = tr.begin("clapd.ingest", id, up.root, b.Name)
	job, dedupe, err := post(c, base, raw)
	tr.end(up.ingest)
	res.counts["clapd.ingest_ms"] = ms(time.Since(start))
	if err != nil {
		return res, up, fmt.Errorf("%s: upload: %w", b.Name, err)
	}
	if dedupe != "" {
		return res, up, fmt.Errorf("%s: first upload of a fresh daemon was deduplicated (%s)", b.Name, dedupe)
	}
	up.digest = job.Digest
	polls := 0
	for !job.State.Terminal() {
		time.Sleep(pollEvery)
		polls++
		if err := getJSON(c, base+"/v1/jobs/"+job.Digest, &job); err != nil {
			return res, up, fmt.Errorf("%s: poll: %w", b.Name, err)
		}
	}
	tr.end(up.root)
	res.latency = time.Since(start)
	res.counts["clapd.polls"] = float64(polls)
	if job.State != clapd.StateDone {
		return res, up, fmt.Errorf("%s: job ended %s: %s", b.Name, job.State, job.Err)
	}

	var result clapd.Result
	if err := getJSON(c, base+"/v1/jobs/"+job.Digest+"/result", &result); err != nil {
		return res, up, fmt.Errorf("%s: result: %w", b.Name, err)
	}
	if !result.Reproduced {
		return res, up, fmt.Errorf("%s: result.json says reproduced=false: %s", b.Name, result.Err)
	}
	res.solved = true
	res.charge = sapCharge(true, result.Preemptions, 0)
	res.counts["replay.reproduced"] = 1

	t := time.Now()
	sp := tr.begin("clapd.dedupe", id, -1, b.Name)
	_, dedupe, err = post(c, base, raw)
	tr.end(sp)
	res.counts["clapd.dedupe_ms"] = ms(time.Since(t))
	if err != nil || dedupe != "cached" {
		return res, up, fmt.Errorf("%s: re-upload not served from the store (dedupe %q, err %v)", b.Name, dedupe, err)
	}
	if tr != nil {
		var data []byte
		if data, err = get(c, base+"/v1/jobs/"+job.Digest+"/metrics"); err == nil {
			up.metricsReport, err = obs.DecodeReport(data)
		}
		if err != nil {
			return res, up, fmt.Errorf("%s: metrics: %w", b.Name, err)
		}
		solveCounts(res.counts, up.metricsReport)
		for name, counter := range map[string]string{
			"constraints.saps":         "constraints.saps",
			"constraints.clauses":      "constraints.clauses",
			"constraints.cands_before": "preprocess.cands.before",
			"constraints.cands_after":  "preprocess.cands.after",
		} {
			res.counts[name] = float64(up.metricsReport.Counters[counter])
		}
	}
	return res, up, nil
}

// post uploads a bundle and returns the job and the dedupe header.
func post(c *http.Client, base string, raw []byte) (clapd.Job, string, error) {
	var job clapd.Job
	resp, err := c.Post(base+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		return job, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return job, "", err
	}
	if resp.StatusCode/100 != 2 {
		return job, "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
	}
	return job, resp.Header.Get("X-Clap-Dedupe"), json.Unmarshal(body, &job)
}

func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return body, nil
}

func getJSON(c *http.Client, url string, v any) error {
	body, err := get(c, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// addDaemonSpans places each job's time inside the daemon under its
// client-side span, from the daemon's JSON event log (time queued and
// running, as dur_ns on each transition) and the job's clap-metrics/1
// report (rehydrate, symexec, preprocess, solve and replay).
func addDaemonSpans(tr *tracer, logw *syncBuffer, uploads []upload) error {
	type window struct{ start, end time.Time }
	queued := map[string]window{}
	running := map[string]window{}
	sc := bufio.NewScanner(bytes.NewReader(logw.buf.Bytes()))
	for sc.Scan() {
		var ev clapd.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("event log: %w", err)
		}
		if ev.Kind != "job.transition" {
			continue
		}
		ts, err := time.Parse(time.RFC3339Nano, ev.TS)
		if err != nil {
			return fmt.Errorf("event log: %w", err)
		}
		win := window{ts.Add(-time.Duration(ev.DurNS)), ts}
		switch ev.From {
		case string(clapd.StateQueued):
			queued[ev.Digest] = win
		case string(clapd.StateRunning):
			running[ev.Digest] = win
		}
	}
	for _, up := range uploads {
		q, r := queued[up.digest], running[up.digest]
		if r.end.IsZero() {
			return fmt.Errorf("event log has no run of %s", up.prog)
		}
		// A worker may pick the job up before the POST returns. The ingest
		// span then ends where the run starts, so no time counts twice.
		ingest := &tr.spans[up.ingest]
		ingest.EndNs = max(ingest.StartNs, min(ingest.EndNs, int64(r.start.Sub(tr.epoch))))
		ingestEnd := tr.epoch.Add(time.Duration(ingest.EndNs))
		tr.add("clapd.queue_wait", up.job, up.root, up.prog, maxTime(q.start, ingestEnd), q.end)
		run := tr.add("clapd.run", up.job, up.root, up.prog, r.start, r.end)
		if up.metricsReport != nil {
			tr.importObs(up.metricsReport.Root, up.job, run, up.prog)
		}
	}
	return nil
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// probe times, as separate calls on each program, the layers the daemon
// runs without spans of its own: the static analyses rehydration
// recomputes, the log codec, and the timeline, explain and races
// artifacts.
func (w *service) probe(order []bench.Benchmark, tr *tracer, firstJob int) error {
	if err := probeStatic(order, tr, firstJob); err != nil {
		return err
	}
	if w.reps == nil {
		w.reps = map[string]*core.Reproduction{}
		for _, b := range order {
			rep, err := core.Reproduce(w.bundles[b.Name].rec, core.ReproduceOptions{Solver: core.Portfolio, CaptureReplay: true})
			if err != nil {
				return fmt.Errorf("%s: %w", b.Name, err)
			}
			w.reps[b.Name] = rep
		}
	}
	for i, b := range order {
		id, rec, rep := firstJob+i, w.bundles[b.Name].rec, w.reps[b.Name]
		sp := tr.begin("ir.compile", id, -1, b.Name)
		_, err := core.Compile(b.Source)
		tr.end(sp)
		sp = tr.begin("trace.encode", id, -1, b.Name)
		framed := rec.Log.EncodeFramed(trace.FramedOptions{})
		tr.end(sp)
		sp = tr.begin("trace.decode", id, -1, b.Name)
		_, derr := trace.DecodeFramedPathLog(framed)
		tr.end(sp)
		sp = tr.begin("timeline.build", id, -1, b.Name)
		_, terr := rep.BuildTimeline(b.Name)
		tr.end(sp)
		sp = tr.begin("explain.diff", id, -1, b.Name)
		_, eerr := rep.ScheduleDiff()
		tr.end(sp)
		sp = tr.begin("races.detect", id, -1, b.Name)
		_, rerr := rec.DetectRaces(races.Options{}, nil)
		tr.end(sp)
		if err := errors.Join(err, derr, terr, eerr, rerr); err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
	}
	return nil
}
