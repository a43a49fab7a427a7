package musketeer_test

// Service-plane integration tests: boot the multi-tenant serve handler
// under httptest and drive it the way a client would — stage inputs over
// HTTP, submit a two-engine workflow, poll the job to completion, and pin
// the tenancy and plan-cache contracts: a second, semantically identical
// submission (different tenant, renamed relations) must replay the cached
// plan — its trace genuinely lacking the compile / optimize /
// partition-search spans — and no tenant can read another's outputs or
// jobs. The concurrent variant runs 8 tenants at once under -race in ci.sh.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"musketeer"
	"musketeer/internal/relation"
	"musketeer/internal/workloads"
)

// ccBeer is a cross-community PageRank in BEER: intersect two edge sets,
// compute degrees, and run three damped rank iterations over the common
// subgraph. At logical scale >= 100k vertices on EC2(16) the auto-mapper
// splits it across two engines (the iterative core on a graph engine, the
// relational prologue elsewhere), which is exactly what the smoke test
// needs to arrive over HTTP.
const ccBeer = `
common  = INTERSECT edges_a, edges_b;
degs    = AGG COUNT(*) AS degree FROM common GROUP BY src;
cedges  = JOIN common, degs ON src = src;
srcs    = PROJECT src FROM common;
dsrcs   = DISTINCT srcs;
seeded  = MUL [src, 0.0] AS rank FROM dsrcs;
ranked  = SUM [rank, 1.0] FROM seeded;
cverts  = PROJECT src AS vertex, rank FROM ranked;
ccpr    = WHILE (iteration < 3) CARRY cverts = new_cverts {
    sent     = JOIN cverts, cedges ON vertex = src;
    shared   = DIV [rank, degree] FROM sent;
    gathered = AGG SUM(rank) AS rank FROM shared GROUP BY dst;
    damped   = MUL [rank, 0.85] FROM gathered;
    applied  = SUM [rank, 0.15] FROM damped;
    new_cverts = PROJECT dst AS vertex, rank FROM applied;
};
`

// edgesTSV renders a generated graph's edge list as a stageable 2-column
// TSV (the workflow recomputes degrees itself), preserving the logical
// size so the cost model sees big data over physically small rows.
func edgesTSV(scale int64, seed int64) []byte {
	g := workloads.GenerateGraph("g", scale, scale*8, 40, seed)
	out := relation.New("edges", relation.NewSchema("src:int", "dst:int"))
	for _, row := range g.Edges.Rows {
		out.MustAppend(relation.Row{row[0], row[1]})
	}
	out.LogicalBytes = g.Edges.LogicalBytes
	return out.EncodeBytes()
}

// serveTestServer boots a deployment's service plane under httptest.
func serveTestServer(t *testing.T, opts musketeer.ServeOptions, mopts ...musketeer.Option) (*httptest.Server, *musketeer.Musketeer) {
	t.Helper()
	m := musketeer.New(mopts...)
	srv := m.NewServer(opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts, m
}

func stageEdges(t *testing.T, base, tenant string, scale int64) {
	t.Helper()
	for i, name := range []string{"edges_a", "edges_b"} {
		url := fmt.Sprintf("%s/api/v1/tenants/%s/inputs/in/%s", base, tenant, name)
		resp, err := http.Post(url, "text/tab-separated-values", bytes.NewReader(edgesTSV(scale, int64(i+1))))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("staging %s for %s: status %d", name, tenant, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// submitCC submits the ccBeer workflow for a tenant and returns the
// accepted job status.
func submitCC(t *testing.T, base, tenant string) musketeer.JobStatus {
	t.Helper()
	req := musketeer.SubmitRequest{
		Frontend: "beer",
		Source:   ccBeer,
		Catalog: map[string]musketeer.TableSpec{
			"edges_a": {Path: "in/edges_a", Schema: []string{"src:int", "dst:int"}},
			"edges_b": {Path: "in/edges_b", Schema: []string{"src:int", "dst:int"}},
		},
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/api/v1/tenants/"+tenant+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st musketeer.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit for %s: status %d (%+v)", tenant, resp.StatusCode, st)
	}
	if st.Status != "queued" {
		t.Fatalf("submit response status = %q, want queued", st.Status)
	}
	return st
}

// pollJob polls until the job leaves queued/running, asserting every
// observed status is legal and the sequence never moves backwards.
func pollJob(t *testing.T, base, tenant, id string) musketeer.JobStatus {
	t.Helper()
	rank := map[string]int{"queued": 0, "running": 1, "ok": 2, "failed": 2}
	last := "queued"
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/api/v1/tenants/" + tenant + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st musketeer.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("polling %s: status %d err %v", id, resp.StatusCode, err)
		}
		r, legal := rank[st.Status]
		if !legal {
			t.Fatalf("job %s reported illegal status %q", id, st.Status)
		}
		if r < rank[last] {
			t.Fatalf("job %s status went backwards: %s -> %s", id, last, st.Status)
		}
		last = st.Status
		if st.Status == "ok" || st.Status == "failed" {
			if st.SubmittedAt == "" || st.FinishedAt == "" {
				t.Errorf("finished job %s missing timestamps: %+v", id, st)
			}
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after deadline", id, st.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func fetchTrace(t *testing.T, base, runID string) string {
	t.Helper()
	resp, err := http.Get(base + "/debug/runs/" + runID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace for %s: status %d", runID, resp.StatusCode)
	}
	return buf.String()
}

// TestServeSmoke is the service smoke gate: tenant A submits the
// two-engine workflow cold, tenant B resubmits it over its own identically
// shaped inputs and must hit the plan cache, and neither tenant can see
// the other's jobs or outputs.
func TestServeSmoke(t *testing.T) {
	const scale = 100_000
	ts, m := serveTestServer(t, musketeer.ServeOptions{Workers: 2},
		musketeer.EC2(16), musketeer.WithPlanCache(64), musketeer.WithTracing())

	stageEdges(t, ts.URL, "acme", scale)
	stageEdges(t, ts.URL, "globex", scale)

	// Tenant A: cold submission. Must compile, search, and split across two
	// engines.
	cold := pollJob(t, ts.URL, "acme", submitCC(t, ts.URL, "acme").ID)
	if cold.Status != "ok" {
		t.Fatalf("cold job failed: %s", cold.Error)
	}
	if cold.Result == nil || len(cold.Result.Engines) != 2 {
		t.Fatalf("cold job engines = %+v, want two engines", cold.Result)
	}
	if cold.Result.PlanCacheHit {
		t.Error("cold submission reported a plan-cache hit")
	}
	coldTrace := fetchTrace(t, ts.URL, cold.Result.RunID)
	for _, span := range []string{"compile", "optimize", "partition-search"} {
		if !strings.Contains(coldTrace, span) {
			t.Errorf("cold trace missing %q span", span)
		}
	}

	// Tenant B: identical workflow over its own namespace. The canonical
	// hash matches, so the plan replays — no compile / optimize /
	// partition-search spans in the trace, same engine split.
	warm := pollJob(t, ts.URL, "globex", submitCC(t, ts.URL, "globex").ID)
	if warm.Status != "ok" {
		t.Fatalf("warm job failed: %s", warm.Error)
	}
	if !warm.Result.PlanCacheHit {
		t.Fatal("second identical submission missed the plan cache")
	}
	if fmt.Sprint(warm.Result.Engines) != fmt.Sprint(cold.Result.Engines) {
		t.Errorf("warm engines %v != cold engines %v", warm.Result.Engines, cold.Result.Engines)
	}
	warmTrace := fetchTrace(t, ts.URL, warm.Result.RunID)
	for _, span := range []string{"compile", "optimize", "partition-search"} {
		if strings.Contains(warmTrace, span) {
			t.Errorf("plan-cache-hit trace still has %q span", span)
		}
	}
	if !strings.Contains(warmTrace, "plan_cache") {
		t.Error("plan-cache-hit trace not annotated with plan_cache attribute")
	}
	if hits := m.Metrics().Counter("plan_cache_hit_total").Value(); hits != 1 {
		t.Errorf("plan_cache_hit_total = %d, want 1", hits)
	}

	// Tenancy: outputs and jobs are invisible across namespaces.
	resp, err := http.Get(ts.URL + "/api/v1/tenants/globex/outputs/in/edges_a")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("tenant reading its own input: status %d", resp.StatusCode)
	}
	for _, probe := range []string{
		"/api/v1/tenants/globex/jobs/" + cold.ID,    // A's job via B
		"/api/v1/tenants/intruder/outputs/ccpr",     // A's output via stranger
		"/api/v1/tenants/intruder/jobs/no-such-job", // unknown job
		"/debug/no-such", // debug fallthrough 404
	} {
		resp, err := http.Get(ts.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", probe, resp.StatusCode)
		}
	}

	// A's sink is fetchable as TSV in A's namespace only.
	resp, err = http.Get(ts.URL + "/api/v1/tenants/acme/outputs/ccpr")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetching acme's ccpr: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/tab-separated-values") {
		t.Errorf("output content type = %q", ct)
	}

	// The debug plane serves from the same listener, and the run digests
	// carry tenant attribution.
	var runs struct {
		Runs []struct {
			Tenant string `json:"tenant"`
		} `json:"runs"`
	}
	resp2, err := http.Get(ts.URL + "/debug/runs")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp2.Body).Decode(&runs)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	tenants := map[string]bool{}
	for _, r := range runs.Runs {
		tenants[r.Tenant] = true
	}
	if !tenants["acme"] || !tenants["globex"] {
		t.Errorf("run digests missing tenant attribution: %+v", tenants)
	}
}

// TestServeValidation pins the service's error semantics: client mistakes
// are 400s at submit time, not failed jobs; closed service is 503.
func TestServeValidation(t *testing.T) {
	ts, _ := serveTestServer(t, musketeer.ServeOptions{Workers: 1}, musketeer.EC2(4))

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"bad tenant name", "/api/v1/tenants/no%2Fslash/jobs", `{"frontend":"beer","source":"x = DISTINCT y;"}`, 400},
		{"unknown frontend", "/api/v1/tenants/a/jobs", `{"frontend":"cobol","source":"x"}`, 400},
		{"syntax error", "/api/v1/tenants/a/jobs", `{"frontend":"beer","source":"this is not BEER"}`, 400},
		{"unknown engine", "/api/v1/tenants/a/jobs", `{"frontend":"beer","source":"o = DISTINCT e;","engine":"warp","catalog":{"e":{"path":"in/e","schema":["id:int"]}}}`, 400},
		{"unknown mode", "/api/v1/tenants/a/jobs", `{"frontend":"beer","source":"o = DISTINCT e;","mode":"psychic","catalog":{"e":{"path":"in/e","schema":["id:int"]}}}`, 400},
		{"bad JSON", "/api/v1/tenants/a/jobs", `{`, 400},
		{"reserved path", "/api/v1/tenants/a/inputs/__run/x", "id:int\n1", 400},
		// A dot-dot in the URL is normalized away by the mux before routing;
		// catalog paths reach the validator verbatim and must be rejected.
		{"dot-dot catalog path", "/api/v1/tenants/a/jobs", `{"frontend":"beer","source":"o = DISTINCT e;","catalog":{"e":{"path":"../escape","schema":["id:int"]}}}`, 400},
		{"reserved catalog path", "/api/v1/tenants/a/jobs", `{"frontend":"beer","source":"o = DISTINCT e;","catalog":{"e":{"path":"__tenant/b/in/e","schema":["id:int"]}}}`, 400},
	}
	for _, tc := range cases {
		if got := post(tc.path, tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}

	// After Close the queue rejects; the server answers 503, not a hang.
	m2 := musketeer.New(musketeer.EC2(4))
	srv2 := m2.NewServer(musketeer.ServeOptions{})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	srv2.Close()
	code := func() int {
		resp, err := http.Post(ts2.URL+"/api/v1/tenants/a/jobs", "application/json",
			strings.NewReader(`{"frontend":"beer","source":"o = DISTINCT e;","catalog":{"e":{"path":"in/e","schema":["id:int"]}}}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}()
	if code != http.StatusServiceUnavailable {
		t.Errorf("submit after Close: status %d, want 503", code)
	}
}

// TestServeRejectsARowCountWithNoRowsBehindIt: a staged input may be a
// columnar stream, and a stream may lie. The header of a one-int-column
// relation and a row count of 2^40 — twenty bytes, in the format of the day —
// used to size an arena by that count and take the daemon down with the
// runtime's out-of-memory fault; they are a 400 now, and the next request is
// served.
func TestServeRejectsARowCountWithNoRowsBehindIt(t *testing.T) {
	ts, _ := serveTestServer(t, musketeer.ServeOptions{Workers: 1}, musketeer.EC2(4))
	empty := relation.New("t", relation.NewSchema("count:int"))
	hostile := binary.AppendUvarint(empty.EncodeColumnar(relation.CodecOptions{}), 1<<40)
	honest := relation.New("t", empty.Schema)
	honest.MustAppend(relation.Row{relation.Int(7)})
	for _, c := range []struct {
		body []byte
		want int
	}{{hostile, http.StatusBadRequest}, {honest.EncodeColumnar(relation.CodecOptions{}), http.StatusCreated}} {
		resp, err := http.Post(ts.URL+"/api/v1/tenants/a/inputs/in/t", "application/octet-stream", bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("staging %d bytes: status %d, want %d", len(c.body), resp.StatusCode, c.want)
		}
	}
}

// TestServeOversizedBodiesAre413: a body one byte past its route's cap —
// 64 MiB for a staged input, 16 MiB for a submission — is answered 413, not
// the 400 of a malformed one.
func TestServeOversizedBodiesAre413(t *testing.T) {
	ts, _ := serveTestServer(t, musketeer.ServeOptions{Workers: 1}, musketeer.EC2(4))
	for _, c := range []struct {
		path   string
		prefix string
		limit  int64
	}{
		{"/api/v1/tenants/a/inputs/in/t", "#schema\ts:string\n", 64 << 20},
		{"/api/v1/tenants/a/jobs", `{"frontend":"beer","source":"`, 16 << 20},
	} {
		// An unterminated value keeps the reader reading to the cap.
		body := io.MultiReader(strings.NewReader(c.prefix),
			io.LimitReader(repeatByte('x'), c.limit+1-int64(len(c.prefix))))
		resp, err := http.Post(ts.URL+c.path, "application/octet-stream", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d bytes: status %d, want 413", c.path, c.limit+1, resp.StatusCode)
		}
	}
}

// repeatByte is an endless stream of one byte.
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestServeUnreadableOutputIs500: only a missing file is a 404. A file whose
// every replica sits on a downed datanode exists but cannot be read, which
// is the server's failure: 500.
func TestServeUnreadableOutputIs500(t *testing.T) {
	ts, m := serveTestServer(t, musketeer.ServeOptions{Workers: 1}, musketeer.EC2(4))
	rel := relation.New("t", relation.NewSchema("id:int"))
	rel.MustAppend(relation.Row{relation.Int(7)})
	resp, err := http.Post(ts.URL+"/api/v1/tenants/a/inputs/in/t", "text/tab-separated-values", bytes.NewReader(rel.EncodeBytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("staging: status %d", resp.StatusCode)
	}
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/api/v1/tenants/a/outputs/" + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("in/t"); code != http.StatusOK {
		t.Fatalf("reading a healthy file: status %d, want 200", code)
	}
	fs, err := m.TenantFS("a")
	if err != nil {
		t.Fatal(err)
	}
	locs, err := fs.BlockLocations("in/t")
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range locs {
		for _, n := range nodes {
			fs.SetNodeDown(n, true)
		}
	}
	if code := get("in/t"); code != http.StatusInternalServerError {
		t.Errorf("reading a file with every replica down: status %d, want 500", code)
	}
	if code := get("in/missing"); code != http.StatusNotFound {
		t.Errorf("reading a missing file: status %d, want 404", code)
	}
}

// TestServeConcurrentTenants drives 8 tenants through the full HTTP path
// at once — staging, submitting, polling, fetching — sharing one
// deployment, one plan cache, and one fair queue. Run under -race in ci.sh.
func TestServeConcurrentTenants(t *testing.T) {
	const scale = 100_000
	ts, _ := serveTestServer(t, musketeer.ServeOptions{Workers: 4},
		musketeer.EC2(16), musketeer.WithPlanCache(64), musketeer.WithTracing())

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	hits := make(chan bool, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", i)
			stageEdges(t, ts.URL, tenant, scale)
			st := submitCC(t, ts.URL, tenant)
			final := pollJob(t, ts.URL, tenant, st.ID)
			if final.Status != "ok" {
				errs <- fmt.Errorf("%s: job failed: %s", tenant, final.Error)
				return
			}
			if len(final.Result.Engines) == 0 {
				errs <- fmt.Errorf("%s: result has no engines", tenant)
				return
			}
			hits <- final.Result.PlanCacheHit
		}(i)
	}
	wg.Wait()
	close(errs)
	close(hits)
	for err := range errs {
		t.Error(err)
	}
	var hit int
	for h := range hits {
		if h {
			hit++
		}
	}
	// Mid-storm hits are racy (concurrent runs' calibration feedback can
	// land between another run's store and the next lookup), so only log
	// them. Once the storm quiesces, though, the last completed run's entry
	// is tagged with the final calibration version: the next submission must
	// replay it.
	t.Logf("plan-cache hits during storm: %d/8", hit)
	stageEdges(t, ts.URL, "straggler", scale)
	final := pollJob(t, ts.URL, "straggler", submitCC(t, ts.URL, "straggler").ID)
	if final.Status != "ok" {
		t.Fatalf("post-storm job failed: %s", final.Error)
	}
	if !final.Result.PlanCacheHit {
		t.Error("post-storm submission missed the plan cache")
	}
}

// TestServeForeignTSVSizesCanonically: an uploaded table need not be text our
// encoder wrote. "1.50", "+7", "007", "1e3" and ".5" parse to values whose
// canonical renderings have other lengths, and every size the system meters
// — the staged file, the relation read back, the job's simulated makespan —
// must be the canonical one: the same as when the same data is uploaded in
// canonical form. (The DFS trusts the number widths its own files carry;
// that trust must stop at the upload boundary.) What the job's output reads
// back as is pinned too.
func TestServeForeignTSVSizesCanonically(t *testing.T) {
	const totTSV = "#schema\tk:int\ttotal:float\n#logical\t0\n7\t2505\n8\t2.5000000625e+08\n0\t0.625\n"
	const foreign = "#schema\tk:int\tw:float\n#logical\t0\n" +
		"+7\t1.50\n007\t1e3\n7\t.5\n8\t2.50\n+8\t100000000\n-0\t0.250\n"
	decoded, err := relation.DecodeBytes("t", []byte(foreign))
	if err != nil {
		t.Fatal(err)
	}
	canonical := decoded.EncodeBytes()
	body := canonical
	for i := 0; i < 2; i++ {
		_, body, _ = bytes.Cut(body, []byte{'\n'})
	}
	if got := decoded.PhysicalBytes(); got != int64(len(body)) {
		t.Fatalf("DecodeBytes of foreign text sizes %d, canonical body is %d bytes", got, len(body))
	}

	ts, m := serveTestServer(t, musketeer.ServeOptions{Workers: 1}, musketeer.EC2(4))
	makespans := map[string]float64{}
	for tenant, upload := range map[string][]byte{"foreign": []byte(foreign), "canon": canonical} {
		resp, err := http.Post(ts.URL+"/api/v1/tenants/"+tenant+"/inputs/in/t", "text/tab-separated-values", bytes.NewReader(upload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("staging for %s: status %d", tenant, resp.StatusCode)
		}
		fs, err := m.TenantFS(tenant)
		if err != nil {
			t.Fatal(err)
		}
		staged, err := fs.ReadRelation("in/t")
		if err != nil {
			t.Fatal(err)
		}
		st, _ := fs.Stat("in/t")
		if st.PhysicalBytes != int64(len(canonical)) {
			t.Errorf("%s: staged file is %d bytes, canonical encoding is %d", tenant, st.PhysicalBytes, len(canonical))
		}
		if got := staged.PhysicalBytes(); got != int64(len(body)) {
			t.Errorf("%s: staged relation sizes %d, canonical body is %d bytes", tenant, got, len(body))
		}
		if err := relation.CheckWidths(staged); err != nil {
			t.Errorf("%s: %v", tenant, err)
		}

		req, _ := json.Marshal(musketeer.SubmitRequest{
			Frontend: "beer",
			Source:   "scaled = MUL [w, 2.5] FROM t;\ntot = AGG SUM(w) AS total FROM scaled GROUP BY k;\n",
			Catalog:  map[string]musketeer.TableSpec{"t": {Path: "in/t", Schema: []string{"k:int", "w:float"}}},
		})
		resp, err = http.Post(ts.URL+"/api/v1/tenants/"+tenant+"/jobs", "application/json", bytes.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		var st0 musketeer.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st0)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit for %s: status %d, err %v (%+v)", tenant, resp.StatusCode, err, st0)
		}
		done := pollJob(t, ts.URL, tenant, st0.ID)
		if done.Status != "ok" {
			t.Fatalf("%s: job failed: %s", tenant, done.Error)
		}
		makespans[tenant] = done.Result.MakespanS

		// What a user reads back is text, byte for byte what it was when
		// the filesystem stored it as text.
		resp, err = http.Get(ts.URL + "/api/v1/tenants/" + tenant + "/outputs/tot")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: fetching tot: status %d, err %v", tenant, resp.StatusCode, err)
		}
		if string(got) != totTSV {
			t.Errorf("%s: GET outputs/tot returned\n%q\nwant\n%q", tenant, got, totTSV)
		}
	}
	if makespans["foreign"] != makespans["canon"] {
		t.Errorf("simulated makespan %v over the foreign upload, %v over its canonical form", makespans["foreign"], makespans["canon"])
	}
}

// TestServeListsJobsNewestFirst: GET /jobs lists a tenant's jobs newest first
// by submission order — j-10 before j-9, which a comparison of the ids as
// strings gets wrong — and leaves other tenants' jobs out.
func TestServeListsJobsNewestFirst(t *testing.T) {
	ts, _ := serveTestServer(t, musketeer.ServeOptions{Workers: 1}, musketeer.EC2(4))
	e := relation.New("e", relation.NewSchema("id:int"))
	e.MustAppend(relation.Row{relation.Int(1)})
	req, _ := json.Marshal(musketeer.SubmitRequest{
		Frontend: "beer",
		Source:   "o = DISTINCT e;",
		Catalog:  map[string]musketeer.TableSpec{"e": {Path: "in/e", Schema: []string{"id:int"}}},
	})
	submit := func(tenant string) string {
		t.Helper()
		resp, err := http.Post(ts.URL+"/api/v1/tenants/"+tenant+"/jobs", "application/json", bytes.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		var st musketeer.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit for %s: status %d, err %v", tenant, resp.StatusCode, err)
		}
		if done := pollJob(t, ts.URL, tenant, st.ID); done.Status != "ok" {
			t.Fatalf("job %s failed: %s", st.ID, done.Error)
		}
		return st.ID
	}
	for _, tenant := range []string{"a", "b"} {
		resp, err := http.Post(ts.URL+"/api/v1/tenants/"+tenant+"/inputs/in/e", "text/tab-separated-values", bytes.NewReader(e.EncodeBytes()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("staging for %s: status %d", tenant, resp.StatusCode)
		}
	}

	var want []string
	for i := 0; i < 12; i++ {
		if i == 5 {
			submit("b")
		}
		want = append([]string{submit("a")}, want...)
	}
	resp, err := http.Get(ts.URL + "/api/v1/tenants/a/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []musketeer.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("listing jobs: status %d, err %v", resp.StatusCode, err)
	}
	var got []string
	for _, st := range list {
		got = append(got, st.ID)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("job list = %v, want %v", got, want)
	}
}
