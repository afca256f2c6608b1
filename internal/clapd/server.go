// The HTTP ingest and query API.
//
//	POST /v1/jobs                   ingest a clap-bundle/1
//	      201 {job}                 accepted and queued (durably journaled)
//	      200 {job}  X-Clap-Dedupe: cached    terminal duplicate, served from store
//	      202 {job}  X-Clap-Dedupe: inflight  duplicate already queued/running
//	      400 {error}               malformed bundle (non-framed log, bad JSON…)
//	      413 {error}               body over the size cap
//	      429 {error}  Retry-After  admission control refused (queue saturated)
//	      503 {error}               draining for shutdown
//	GET  /v1/jobs                   job table snapshot
//	GET  /v1/jobs/{digest}          one job's state
//	GET  /v1/jobs/{digest}/{artifact}   artifact ∈ result|metrics|timeline|explain|races|bundle
//	GET  /v1/stats                  the daemon's clap-metrics/1 report (clapd.* counters)
//	GET  /metrics                   the same registry in Prometheus text format
//	GET  /healthz                   "ok" (200) or "draining" (503)
package clapd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Handler returns the daemon's HTTP API.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", d.handleJobs)
	mux.HandleFunc("/v1/jobs/", d.handleJob)
	mux.HandleFunc("/v1/stats", d.handleStats)
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/healthz", d.handleHealth)
	return mux
}

// httpError is the JSON error envelope.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (d *Daemon) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		d.handleIngest(w, r)
	case http.MethodGet:
		writeJSON(w, http.StatusOK, map[string]any{"jobs": d.Jobs()})
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

func (d *Daemon) handleIngest(w http.ResponseWriter, r *http.Request) {
	// MaxBytesReader cuts an oversized body off at the cap + 1 marker
	// byte: the daemon never buffers more than its limit, no matter what
	// Content-Length claims.
	body := http.MaxBytesReader(w, r.Body, d.cfg.MaxUploadBytes)
	raw := make([]byte, 0, 64<<10)
	buf := make([]byte, 32<<10)
	for {
		n, err := body.Read(buf)
		raw = append(raw, buf[:n]...)
		if err != nil {
			if err.Error() == "http: request body too large" {
				d.reg().Add("clapd.ingest.rejected.toolarge", 1)
				httpError(w, http.StatusRequestEntityTooLarge,
					"bundle exceeds the %dB upload cap", d.cfg.MaxUploadBytes)
				return
			}
			if err.Error() != "EOF" {
				httpError(w, http.StatusBadRequest, "reading body: %v", err)
				return
			}
			break
		}
	}
	res, err := d.accept(raw)
	if err != nil {
		var bad *BadBundleError
		var large *TooLargeError
		switch {
		case errors.As(err, &large):
			httpError(w, http.StatusRequestEntityTooLarge, "%v", err)
		case errors.As(err, &bad):
			httpError(w, http.StatusBadRequest, "%v", err)
		case errors.Is(err, ErrSaturated):
			w.Header().Set("Retry-After", strconv.Itoa(d.RetryAfter()))
			httpError(w, http.StatusTooManyRequests,
				"queue saturated (%d active jobs); retry after the advertised delay", d.cfg.QueueDepth)
		case errors.Is(err, ErrDraining):
			httpError(w, http.StatusServiceUnavailable, "daemon is draining")
		default:
			httpError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	switch res.Status {
	case IngestCached:
		w.Header().Set("X-Clap-Dedupe", "cached")
		writeJSON(w, http.StatusOK, res.Job)
	case IngestInFlight:
		w.Header().Set("X-Clap-Dedupe", "inflight")
		writeJSON(w, http.StatusAccepted, res.Job)
	default:
		writeJSON(w, http.StatusCreated, res.Job)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		d.enqueue(res.Digest)
	}
}

// handleJob serves /v1/jobs/{digest} and /v1/jobs/{digest}/{artifact}.
func (d *Daemon) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	digest, artifact, hasArtifact := strings.Cut(rest, "/")
	if !validDigest(digest) {
		httpError(w, http.StatusBadRequest, "bad digest %q (want 64 hex chars)", digest)
		return
	}
	job, ok := d.JobView(digest)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %s", digest)
		return
	}
	if !hasArtifact {
		writeJSON(w, http.StatusOK, job)
		return
	}
	name, ok := artifactNames[artifact]
	if !ok {
		httpError(w, http.StatusNotFound, "unknown artifact %q (want result|metrics|timeline|explain|races|bundle)", artifact)
		return
	}
	data, err := d.store.Read(digest, name)
	if err != nil {
		httpError(w, http.StatusNotFound, "artifact %q not (yet) available for %s", artifact, digest)
		return
	}
	ct := "application/json"
	if strings.HasSuffix(name, ".txt") {
		ct = "text/plain; charset=utf-8"
	}
	w.Header().Set("Content-Type", ct)
	w.Write(data)
}

// handleStats serves the daemon's own observability report.
func (d *Daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	data, err := d.tr.Report().Encode()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleMetrics serves the daemon-lifetime registry — the daemon's own
// clapd.* metrics plus every finished job's merged registry — in
// Prometheus text format. The encoding is deterministic (sorted names,
// fixed buckets), so two scrapes of an idle daemon are byte-identical.
func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(obs.EncodeProm(d.reg().TakeSnapshot()))
}

func (d *Daemon) handleHealth(w http.ResponseWriter, r *http.Request) {
	if d.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}
