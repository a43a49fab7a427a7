// The serve subcommand runs one deployment as a long-lived multi-tenant
// service: workflows arrive over HTTP/JSON, are admitted through per-tenant
// fair queueing, and repeated submissions replay cached plans.
//
//	musketeer serve -addr :8080 -cluster ec2:16 -plan-cache 256
//
//	# stage a relation for tenant "acme"
//	curl -X POST --data-binary @edges.tsv \
//	    'localhost:8080/api/v1/tenants/acme/inputs/in/edges?logical_bytes=1000000000'
//
//	# submit a workflow
//	curl -X POST -d '{"frontend":"hive","source":"...","catalog":{"edges":{"path":"in/edges","schema":["src:int","dst:int"]}}}' \
//	    localhost:8080/api/v1/tenants/acme/jobs
//
//	# poll, then fetch
//	curl localhost:8080/api/v1/tenants/acme/jobs/j-1
//	curl localhost:8080/api/v1/tenants/acme/outputs/result
//
// The debug plane (/metrics, /debug/runs, /healthz, /debug/pprof) is served
// from the same listener.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"

	"musketeer"
)

// runServe starts the service plane and blocks for the process lifetime.
func runServe(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address for the service and debug planes")
	clusterSpec := fs.String("cluster", "local:7", "deployment: local:<n> or ec2:<n>")
	planCache := fs.Int("plan-cache", 128, "canonicalized-DAG plan cache capacity (0 disables)")
	workers := fs.Int("workers", 4, "concurrently executing submissions across all tenants")
	maxQueued := fs.Int("max-queued", 64, "per-tenant bound on waiting submissions (beyond it: 429)")
	maxInFlight := fs.Int("max-in-flight", 0, "per-tenant bound on running submissions (0 = workers)")
	weights := fs.String("weights", "", "comma-separated tenant dispatch weights, e.g. gold=4,silver=2")
	trace := fs.Bool("trace", true, "record flight-recorder spans (served at /debug/runs/<id>/trace)")
	retries := fs.Int("retries", 0, "per-job retry budget for transiently failed jobs")
	fs.Parse(args)

	opts := []musketeer.Option{clusterOption(*clusterSpec), musketeer.WithPlanCache(*planCache)}
	if *trace {
		opts = append(opts, musketeer.WithTracing())
	}
	if *retries > 0 {
		opts = append(opts, musketeer.WithRetries(*retries))
	}
	m := musketeer.New(opts...)

	wmap, err := parseWeights(*weights)
	if err != nil {
		fail("%v", err)
	}
	srv := m.NewServer(musketeer.ServeOptions{
		Workers:     *workers,
		MaxQueued:   *maxQueued,
		MaxInFlight: *maxInFlight,
		Weights:     wmap,
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("serve: %v", err)
	}
	fmt.Fprintf(os.Stderr, "musketeer service on http://%s (/api/v1/tenants/... ; debug: /metrics /debug/runs /healthz)\n", ln.Addr())
	if err := (&http.Server{Handler: srv}).Serve(ln); err != nil {
		fail("serve: %v", err)
	}
	return 0
}

// parseWeights parses "a=2,b=4" into a weight map.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]int{}
	for _, pair := range strings.Split(s, ",") {
		name, wStr, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("bad -weights entry %q (want tenant=weight)", pair)
		}
		w, err := strconv.Atoi(wStr)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -weights weight %q for tenant %q", wStr, name)
		}
		out[name] = w
	}
	return out, nil
}
