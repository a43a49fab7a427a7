package musketeer

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"musketeer/internal/dfs"
	"musketeer/internal/frontends"
	"musketeer/internal/relation"
	"musketeer/internal/sched"
)

// Server is Musketeer's multi-tenant service plane: a long-lived HTTP/JSON
// API over one deployment, turning the one-shot library into the paper's
// "workflows arrive continuously" setting. Each tenant owns a private DFS
// namespace (inputs staged and outputs read through it), submissions are
// admitted through a per-tenant bounded queue drained by deficit-round-
// robin fair scheduling (sched.FairQueue), and — when the deployment was
// built WithPlanCache — repeated submissions of semantically identical
// workflows skip compile/optimize/partition-search via the canonicalized-
// DAG plan cache.
//
// API (all under /api/v1; non-API paths fall through to the debug plane —
// /metrics, /debug/runs, /healthz, pprof):
//
//	POST /api/v1/tenants/{tenant}/inputs/{path...}   stage a TSV relation
//	GET  /api/v1/tenants/{tenant}/outputs/{path...}  fetch a relation as TSV
//	POST /api/v1/tenants/{tenant}/jobs               submit a workflow (202)
//	GET  /api/v1/tenants/{tenant}/jobs               list the tenant's jobs
//	GET  /api/v1/tenants/{tenant}/jobs/{id}          poll one job
//
// Job status transitions queued → running → ok|failed. Submissions beyond
// the tenant's queue bound are rejected with 429. Tenancy is addressed by
// URL path — the service models multi-tenant *isolation* (namespaces,
// fairness), not authentication.
type Server struct {
	m     *Musketeer
	fq    *sched.FairQueue
	mux   *http.ServeMux
	debug http.Handler

	ctx    context.Context
	cancel context.CancelFunc

	mu   sync.Mutex
	jobs map[string]*serveJob
	seq  atomic.Int64
}

// ServeOptions configures a Server. Zero values pick defaults.
type ServeOptions struct {
	// Workers bounds concurrently executing submissions across all tenants
	// (default 4). Note this is submission-level admission; each running
	// submission's back-end jobs still share the deployment scheduler.
	Workers int
	// MaxQueued bounds each tenant's waiting submissions; beyond it submit
	// returns 429 (default 64).
	MaxQueued int
	// MaxInFlight bounds each tenant's concurrently running submissions
	// (default Workers).
	MaxInFlight int
	// Weights gives tenants relative dispatch weight (absent = 1).
	Weights map[string]int
}

// serveJob tracks one submission through the queue.
type serveJob struct {
	id     string
	seq    int64 // submission order; id is "j-<seq>"
	tenant string

	mu        sync.Mutex
	status    string // "queued" | "running" | "ok" | "failed"
	err       string
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    *JobResult
}

// JobStatus is the wire form of a submission's state.
type JobStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	// Status is "queued", "running", "ok", or "failed".
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// Timestamps are RFC 3339; zero ones are omitted.
	SubmittedAt string `json:"submitted_at,omitempty"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
	// Result is set once Status is "ok".
	Result *JobResult `json:"result,omitempty"`
}

// JobResult summarizes a completed execution.
type JobResult struct {
	// RunID addresses the execution's digest (GET /debug/runs/{id}) and,
	// for traced deployments, its Chrome trace.
	RunID string `json:"run_id,omitempty"`
	// MakespanS is the simulated end-to-end time.
	MakespanS float64 `json:"makespan_s"`
	// Engines are the distinct back-ends the plan used; Jobs its job count.
	Engines []string `json:"engines"`
	Jobs    int      `json:"jobs"`
	// PlanCacheHit reports the execution replayed a cached plan.
	PlanCacheHit bool `json:"plan_cache_hit"`
	// Outputs are the workflow's sink relations, fetchable under
	// /api/v1/tenants/{tenant}/outputs/{name}.
	Outputs []string `json:"outputs"`
	// SubmitToResultMS is wall time from submission to completion.
	SubmitToResultMS float64 `json:"submit_to_result_ms"`
}

// SubmitRequest is the submission wire format.
type SubmitRequest struct {
	// Frontend selects the workflow language: "hive", "beer", "pig", or
	// "gas".
	Frontend string `json:"frontend"`
	// Source is the workflow text.
	Source string `json:"source"`
	// Engine optionally pins one back-end; "" auto-maps.
	Engine string `json:"engine,omitempty"`
	// Mode selects generated-code quality: "optimized" (default), "naive",
	// or "hand".
	Mode string `json:"mode,omitempty"`
	// Catalog binds the workflow's base-table names to the tenant's staged
	// relations.
	Catalog map[string]TableSpec `json:"catalog"`
	// GAS carries the Gather-Apply-Scatter front-end's configuration;
	// required when Frontend is "gas".
	GAS *GASSpec `json:"gas,omitempty"`
}

// TableSpec is one catalog entry: a tenant-relative DFS path and a schema
// as "name:kind" specs.
type TableSpec struct {
	Path   string   `json:"path"`
	Schema []string `json:"schema"`
}

// GASSpec configures the GAS front-end.
type GASSpec struct {
	Vertices string `json:"vertices"`
	Edges    string `json:"edges"`
	Output   string `json:"output,omitempty"`
}

// NewServer builds the deployment's service plane. Close it to drain.
func (m *Musketeer) NewServer(opts ServeOptions) *Server {
	// The server owns the service plane's lifetime: this is its root
	// context, cancelled by Close, not a per-request scope a caller could
	// pass in.
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		m: m,
		fq: sched.NewFairQueue(sched.FairOptions{
			Workers:     opts.Workers,
			MaxQueued:   opts.MaxQueued,
			MaxInFlight: opts.MaxInFlight,
			Weights:     opts.Weights,
		}),
		debug:  m.DebugHandler(),
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[string]*serveJob),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/tenants/{tenant}/inputs/{path...}", s.handleInput)
	mux.HandleFunc("GET /api/v1/tenants/{tenant}/outputs/{path...}", s.handleOutput)
	mux.HandleFunc("POST /api/v1/tenants/{tenant}/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/tenants/{tenant}/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/tenants/{tenant}/jobs/{id}", s.handleJob)
	mux.HandleFunc("/api/", func(w http.ResponseWriter, r *http.Request) {
		serveError(w, http.StatusNotFound, fmt.Errorf("no such API route"))
	})
	mux.Handle("/", s.debug)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close cancels in-flight executions and drains the queue workers.
// Submissions still waiting in the queue remain in status "queued".
func (s *Server) Close() {
	s.cancel()
	s.fq.Close()
}

func serveError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func serveJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// tenantFS resolves the request's tenant namespace, writing a 400 on
// invalid names.
func (s *Server) tenantFS(w http.ResponseWriter, r *http.Request) (*dfs.DFS, string, bool) {
	tenant := r.PathValue("tenant")
	fs, err := s.m.TenantFS(tenant)
	if err != nil {
		serveError(w, http.StatusBadRequest, err)
		return nil, "", false
	}
	return fs, tenant, true
}

// handleInput stages a TSV-encoded relation into the tenant's namespace.
// The optional logical_bytes query parameter sets the relation's logical
// size for the cost model (simulated big data over physically small rows).
func (s *Server) handleInput(w http.ResponseWriter, r *http.Request) {
	fs, _, ok := s.tenantFS(w, r)
	if !ok {
		return
	}
	path := r.PathValue("path")
	if err := dfs.ValidatePath(path); err != nil {
		serveError(w, http.StatusBadRequest, err)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		serveError(w, bodyStatus(err), fmt.Errorf("reading body: %w", err))
		return
	}
	rel, err := relation.DecodeBytes(path, data)
	if err != nil {
		serveError(w, http.StatusBadRequest, err)
		return
	}
	if lb := r.URL.Query().Get("logical_bytes"); lb != "" {
		n, err := strconv.ParseInt(lb, 10, 64)
		if err != nil || n < 0 {
			serveError(w, http.StatusBadRequest, fmt.Errorf("bad logical_bytes %q", lb))
			return
		}
		rel.LogicalBytes = n
	}
	if err := fs.WriteRelation(path, rel); err != nil {
		serveError(w, http.StatusInternalServerError, err)
		return
	}
	serveJSON(w, http.StatusCreated, map[string]any{"path": path, "rows": rel.NumRows()})
}

// bodyStatus is the status for a request body that could not be read: 413
// when it ran past its route's cap, else 400.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// handleOutput fetches a relation from the tenant's namespace as TSV.
func (s *Server) handleOutput(w http.ResponseWriter, r *http.Request) {
	fs, _, ok := s.tenantFS(w, r)
	if !ok {
		return
	}
	path := r.PathValue("path")
	if err := dfs.ValidatePath(path); err != nil {
		serveError(w, http.StatusBadRequest, err)
		return
	}
	rel, err := fs.ReadRelation(path)
	if err != nil {
		// Only a missing file is a 404; one whose blocks cannot be read
		// (every replica down or corrupt) is the server's failure.
		status := http.StatusInternalServerError
		if errors.Is(err, iofs.ErrNotExist) {
			status = http.StatusNotFound
		}
		serveError(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "text/tab-separated-values; charset=utf-8")
	_, _ = w.Write(rel.EncodeBytes())
}

// compile translates a submission into a tenant-bound workflow.
func (s *Server) compile(tenant string, req *SubmitRequest) (*Workflow, error) {
	cat := Catalog{}
	for name, tbl := range req.Catalog {
		if err := dfs.ValidatePath(tbl.Path); err != nil {
			return nil, fmt.Errorf("catalog table %q: %w", name, err)
		}
		cat[name] = frontends.Table{Path: tbl.Path, Schema: relation.NewSchema(tbl.Schema...)}
	}
	if req.Frontend == "gas" && req.GAS == nil {
		return nil, fmt.Errorf("frontend gas requires the gas config")
	}
	var gasCfg *GASConfig
	if req.GAS != nil {
		gasCfg = &GASConfig{Vertices: req.GAS.Vertices, Edges: req.GAS.Edges, Output: req.GAS.Output}
	}
	wf, err := s.m.Compile(req.Frontend, req.Source, cat, gasCfg)
	if err != nil {
		return nil, err
	}
	switch req.Mode {
	case "", "optimized":
		wf.Mode = ModeOptimized
	case "naive":
		wf.Mode = ModeNaive
	case "hand":
		wf.Mode = ModeHand
	default:
		return nil, fmt.Errorf("unknown mode %q (want optimized, naive, or hand)", req.Mode)
	}
	if req.Engine != "" {
		if _, ok := s.m.engines[req.Engine]; !ok {
			return nil, fmt.Errorf("unknown engine %q", req.Engine)
		}
	}
	if err := wf.BindTenant(tenant); err != nil {
		return nil, err
	}
	return wf, nil
}

// handleSubmit compiles the submission synchronously (so syntax and
// catalog errors are a 400, not a failed job) and enqueues its execution.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	_, tenant, ok := s.tenantFS(w, r)
	if !ok {
		return
	}
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(&req); err != nil {
		serveError(w, bodyStatus(err), fmt.Errorf("decoding submission: %w", err))
		return
	}
	wf, err := s.compile(tenant, &req)
	if err != nil {
		serveError(w, http.StatusBadRequest, err)
		return
	}
	seq := s.seq.Add(1)
	job := &serveJob{
		id:        fmt.Sprintf("j-%d", seq),
		seq:       seq,
		tenant:    tenant,
		status:    "queued",
		submitted: time.Now(),
	}
	s.m.metrics.Counter("serve_submissions_total").Add(1)
	accepted := job.snapshot() // "queued": a free worker may start the job before the response is written
	if err := s.fq.Submit(tenant, func() { s.run(job, wf, req.Engine) }); err != nil {
		if errors.Is(err, sched.ErrQueueFull) {
			s.m.metrics.Counter("serve_rejected_total").Add(1)
			serveError(w, http.StatusTooManyRequests, err)
			return
		}
		serveError(w, http.StatusServiceUnavailable, err)
		return
	}
	s.mu.Lock()
	s.jobs[job.id] = job
	s.mu.Unlock()
	serveJSON(w, http.StatusAccepted, accepted)
}

// run executes one dequeued submission.
func (s *Server) run(job *serveJob, wf *Workflow, engine string) {
	job.mu.Lock()
	job.status = "running"
	job.started = time.Now()
	job.mu.Unlock()

	var res *Result
	var err error
	if engine == "" {
		res, err = wf.ExecuteCtx(s.ctx)
	} else {
		res, err = wf.ExecuteOnCtx(s.ctx, engine)
	}

	job.mu.Lock()
	defer job.mu.Unlock()
	job.finished = time.Now()
	if err != nil {
		job.status = "failed"
		job.err = err.Error()
		s.m.metrics.Counter("serve_failed_total").Add(1)
		return
	}
	var outputs []string
	for _, sink := range wf.dag.Sinks() {
		outputs = append(outputs, sink.Out)
	}
	sort.Strings(outputs)
	job.status = "ok"
	job.result = &JobResult{
		RunID:            res.RunID,
		MakespanS:        float64(res.Makespan),
		Engines:          res.Partitioning.Engines(),
		Jobs:             len(res.Partitioning.Jobs),
		PlanCacheHit:     res.PlanCacheHit,
		Outputs:          outputs,
		SubmitToResultMS: job.finished.Sub(job.submitted).Seconds() * 1e3,
	}
	s.m.metrics.Counter("serve_completed_total").Add(1)
}

// snapshot renders the job's state for the wire. Callers must not hold
// job.mu.
func (j *serveJob) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		Tenant:      j.tenant,
		Status:      j.status,
		Error:       j.err,
		SubmittedAt: rfc3339(j.submitted),
		StartedAt:   rfc3339(j.started),
		FinishedAt:  rfc3339(j.finished),
	}
	if j.result != nil {
		r := *j.result
		st.Result = &r
	}
	return st
}

func rfc3339(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.Format(time.RFC3339Nano)
}

// handleJob polls one job; jobs of other tenants are a 404, not a 403 —
// existence is not leaked across namespaces.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	if err := dfs.ValidateName(tenant); err != nil {
		serveError(w, http.StatusBadRequest, err)
		return
	}
	id := r.PathValue("id")
	s.mu.Lock()
	job := s.jobs[id]
	s.mu.Unlock()
	if job == nil || job.tenant != tenant {
		serveError(w, http.StatusNotFound, fmt.Errorf("no such job %q", id))
		return
	}
	serveJSON(w, http.StatusOK, job.snapshot())
}

// handleList returns the tenant's jobs, newest first.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	if err := dfs.ValidateName(tenant); err != nil {
		serveError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	var jobs []*serveJob
	for _, j := range s.jobs {
		if j.tenant == tenant {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq > jobs[b].seq })
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.snapshot())
	}
	serveJSON(w, http.StatusOK, out)
}
