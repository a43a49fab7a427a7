package musketeer

// Debug-server integration tests: boot the deployment's DebugHandler under
// httptest and prove the telemetry plane holds up — every /metrics scrape is
// well-formed Prometheus exposition, idle scrapes are byte-stable, run
// digests land in /debug/runs with their trace endpoint live, and the whole
// surface survives being scraped concurrently with chaotic executions
// (run under -race in ci.sh).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"musketeer/internal/obs"
)

// scrape GETs path from the debug server and returns status + body.
func scrape(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

type runsPage struct {
	Runs []RunDigest `json:"runs"`
}

func TestDebugServerScrape(t *testing.T) {
	m := New(WithTracing())
	cat := stageProperty(t, m)
	wf, err := m.CompileHive(maxPriceHive, cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wf.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.RunID == "" {
		t.Fatal("Execute returned no RunID")
	}

	srv := httptest.NewServer(m.DebugHandler())
	defer srv.Close()

	code, body := scrape(t, srv, "/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	// /metrics: every line must be valid exposition, and with the
	// deployment idle two scrapes must be byte-identical.
	code, first := scrape(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if err := obs.ValidatePromText(first); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	if !strings.Contains(first, "workflows_completed_total 1") {
		t.Errorf("/metrics missing completed-workflow counter:\n%s", first)
	}
	_, second := scrape(t, srv, "/metrics")
	if first != second {
		t.Errorf("idle /metrics scrapes differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}

	// /debug/runs: the execution's digest must be retained and addressable.
	code, body = scrape(t, srv, "/debug/runs")
	if code != http.StatusOK {
		t.Fatalf("/debug/runs status = %d", code)
	}
	var page runsPage
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatalf("/debug/runs: %v\n%s", err, body)
	}
	if len(page.Runs) != 1 {
		t.Fatalf("retained runs = %d, want 1", len(page.Runs))
	}
	d := page.Runs[0]
	if d.ID != res.RunID || d.Status != "ok" || !d.Traced || d.Spans == 0 {
		t.Errorf("digest = %+v, want id=%s status=ok traced with spans", d, res.RunID)
	}
	if d.MakespanS <= 0 {
		t.Errorf("digest missing makespan: %+v", d)
	}
	if len(d.Jobs) == 0 || !reflect.DeepEqual(d.Jobs, res.Accuracy.Jobs) {
		t.Errorf("digest jobs = %+v, want the result's accuracy jobs %+v", d.Jobs, res.Accuracy.Jobs)
	}

	code, body = scrape(t, srv, "/debug/runs/"+res.RunID)
	if code != http.StatusOK {
		t.Fatalf("/debug/runs/%s status = %d", res.RunID, code)
	}
	code, body = scrape(t, srv, "/debug/runs/"+res.RunID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace status = %d", code)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("trace is not Chrome trace JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Error("trace has no events")
	}

	if code, _ := scrape(t, srv, "/debug/runs/nope"); code != http.StatusNotFound {
		t.Errorf("unknown run id status = %d, want 404", code)
	}
}

// TestConcurrentScrapeDuringChaoticExecutes runs eight traced chaotic
// executions against one deployment while hammering the debug endpoints,
// validating every scrape. The -race run of this test is the data-race
// gate for the whole telemetry plane.
func TestConcurrentScrapeDuringChaoticExecutes(t *testing.T) {
	plan := &ChaosPlan{
		Seed:                11,
		JobCrashProb:        0.2,
		MTBFSeconds:         60,
		SlowNodeProb:        0.2,
		SlowFactor:          3,
		DFSReadFailProb:     0.2,
		CheckpointIntervalS: 20,
		CheckpointCostS:     1,
	}
	m := New(WithTracing(), WithChaos(plan), WithRetries(5))
	cat := stageProperty(t, m)

	const executes = 8
	wfs := make([]*Workflow, executes)
	for i := range wfs {
		wf, err := m.CompileHive(maxPriceHive, cat)
		if err != nil {
			t.Fatal(err)
		}
		wfs[i] = wf
	}

	srv := httptest.NewServer(m.DebugHandler())
	defer srv.Close()

	// The scraper runs until the executions have finished and is stopped
	// before the server closes, so no response is cut off mid-body: every
	// error it sees is the server's.
	stop, done := make(chan struct{}), make(chan struct{})
	var scrapeErr error
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := srv.Client().Get(srv.URL + "/metrics")
			if err != nil {
				scrapeErr = fmt.Errorf("scrape %d: /metrics: %w", i, err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil {
				err = obs.ValidatePromText(string(body))
			}
			if err != nil {
				scrapeErr = fmt.Errorf("scrape %d: %w", i, err)
				return
			}
			resp, err = srv.Client().Get(srv.URL + "/debug/runs")
			if err != nil {
				scrapeErr = fmt.Errorf("scrape %d: /debug/runs: %w", i, err)
				return
			}
			var page runsPage
			err = json.NewDecoder(resp.Body).Decode(&page)
			resp.Body.Close()
			if err != nil {
				scrapeErr = fmt.Errorf("scrape %d: /debug/runs: %w", i, err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, executes)
	for i := range wfs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = wfs[i].Execute()
		}(i)
	}
	wg.Wait()
	close(stop)
	<-done

	for i, err := range errs {
		if err != nil {
			t.Errorf("execute %d: %v", i, err)
		}
	}
	if scrapeErr != nil {
		t.Fatal(scrapeErr)
	}

	// All eight digests retained, all traced; final scrape still valid.
	runs := m.Runs().Runs()
	if len(runs) != executes {
		t.Fatalf("retained runs = %d, want %d", len(runs), executes)
	}
	for _, d := range runs {
		if d.Status != "ok" || !d.Traced {
			t.Errorf("digest %s: status=%s traced=%v", d.ID, d.Status, d.Traced)
		}
	}
	_, final := scrape(t, srv, "/metrics")
	if err := obs.ValidatePromText(final); err != nil {
		t.Fatal(err)
	}
}
