package perf

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"musketeer/internal/relation"
)

// The benchmark owns its input generators: only relation.New/MustAppend
// come from the product, so a product change cannot move the load. Every
// generator draws from one *rand.Rand seeded from the command line; the
// same seed gives the same rows.

// Sizes fixes how much data each member workflow sees. They are constants
// of the benchmark (README "Input sizes"), not options: Quick exists only
// so the harness's own smoke test finishes in seconds.
type Sizes struct {
	Lineitem, Parts             int // TPC-H Q17
	Users, Movies, RatingsPer   int // NetFlix
	PRVertices, PRDegree        int // GAS PageRank
	CCVertices, CCDegree        int // BEER cross-community PageRank (per graph)
	PRIterations, CCIterations  int
	ServeVertices, ServeDegree  int // serve_open request inputs
	PlanRows                    int // plan_cold staged inputs (tiny)
	MovieLimit                  int64
	RandomDAGs, RandomDAGMinOps int
	RandomDAGSpanOps            int
	// WarmRounds is how many times warm-up runs every member.
	WarmRounds int
}

// FullSizes are the sizes every reported number is measured at.
var FullSizes = Sizes{
	Lineitem: 60_000, Parts: 3_000,
	Users: 300, Movies: 60, RatingsPer: 10, MovieLimit: 36,
	PRVertices: 800, PRDegree: 16, PRIterations: 5,
	CCVertices: 800, CCDegree: 12, CCIterations: 5,
	ServeVertices: 40, ServeDegree: 4,
	PlanRows:   64,
	RandomDAGs: 6, RandomDAGMinOps: 20, RandomDAGSpanOps: 21,
	WarmRounds: 4,
}

// QuickSizes keep the harness's own smoke test under a few seconds.
var QuickSizes = Sizes{
	Lineitem: 1_500, Parts: 100,
	Users: 40, Movies: 20, RatingsPer: 5, MovieLimit: 12,
	PRVertices: 80, PRDegree: 4, PRIterations: 2,
	CCVertices: 80, CCDegree: 4, CCIterations: 2,
	ServeVertices: 24, ServeDegree: 3,
	PlanRows:   32,
	RandomDAGs: 2, RandomDAGMinOps: 20, RandomDAGSpanOps: 6,
	WarmRounds: 2,
}

var (
	brands     = []string{"Brand#23", "Brand#12", "Brand#44", "Brand#55"}
	containers = []string{"MED BOX", "SM CASE", "LG DRUM", "JUMBO PKG"}
)

func cents(x float64) float64 { return math.Round(x*100) / 100 }

// The generators keep every count that sets the amount of work — rows per
// key, matches per filter, edges per graph — the same for every seed, and
// let the seed choose only which rows carry which values. Runs with
// different seeds then differ by measurement noise, not by input size.

// deck returns n values cycling through 0..kinds-1, shuffled: every kind
// occurs n/kinds times (±1) whatever the seed.
func deck(r *rand.Rand, n, kinds int) []int {
	d := make([]int, n)
	for i := range d {
		d[i] = i % kinds
	}
	r.Shuffle(n, func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// genTPCH makes Q17's lineitem(partkey, quantity, extendedprice) and
// part(partkey, brand, container). Every brand/container pair marks the
// same number of parts and every part has the same number of line items.
func genTPCH(r *rand.Rand, lineitems, parts int) (lineitem, part *relation.Relation) {
	part = relation.New("part", relation.NewSchema("partkey:int", "brand:string", "container:string"))
	for i, kind := range deck(r, parts, len(brands)*len(containers)) {
		part.MustAppend(relation.Row{
			relation.Int(int64(i)),
			relation.Str(brands[kind/len(containers)]),
			relation.Str(containers[kind%len(containers)]),
		})
	}
	lineitem = relation.New("lineitem", relation.NewSchema("partkey:int", "quantity:float", "extendedprice:float"))
	for _, key := range deck(r, lineitems, parts) {
		qty := float64(1 + r.Intn(50))
		lineitem.MustAppend(relation.Row{
			relation.Int(int64(key)),
			relation.Float(qty),
			relation.Float(cents(qty * (900 + 100*r.Float64()))),
		})
	}
	return lineitem, part
}

// genNetflix makes ratings(user, movie, rating) and movies(movie, year).
// Each user rates per distinct movies, of which the share below limit is
// the same for every user, so the self-join on user has a fixed size.
func genNetflix(r *rand.Rand, users, movies, per int, limit int64) (ratings, movieList *relation.Relation) {
	ratings = relation.New("ratings", relation.NewSchema("user:int", "movie:int", "rating:float"))
	below := per * int(limit) / movies
	for u := 0; u < users; u++ {
		picks := r.Perm(int(limit))[:below]
		for _, m := range r.Perm(movies - int(limit))[:per-below] {
			picks = append(picks, int(limit)+m)
		}
		for _, m := range picks {
			ratings.MustAppend(relation.Row{
				relation.Int(int64(u)), relation.Int(int64(m)),
				relation.Float(float64(1 + r.Intn(5))),
			})
		}
	}
	movieList = relation.New("movies", relation.NewSchema("movie:int", "year:int"))
	for m := 0; m < movies; m++ {
		movieList.MustAppend(relation.Row{relation.Int(int64(m)), relation.Int(int64(1950 + r.Intn(60)))})
	}
	return ratings, movieList
}

// edge is one directed edge of a generated graph.
type edge struct{ src, dst int64 }

// genEdges draws a directed graph without self-loops or duplicate edges.
// Out-degrees are a shuffled deck of 1..2·avgDeg-1, so the edge count is the
// same for every seed; destinations are skewed towards low ids (squared
// uniform draw) so in-degree is uneven, as in social graphs.
func genEdges(r *rand.Rand, vertices, avgDeg int) []edge {
	var out []edge
	for v, d := range deck(r, vertices, 2*avgDeg-1) {
		seen := map[int64]bool{int64(v): true}
		for len(seen) <= d+1 {
			u := r.Float64()
			dst := int64(u * u * float64(vertices))
			if !seen[dst] {
				seen[dst] = true
				out = append(out, edge{int64(v), dst})
			}
		}
	}
	return out
}

// gasRelations lays a graph out in the GAS front-end's conventions:
// vertices(vertex, vertex_value=1) and edges(src, dst, vertex_degree).
func gasRelations(vertices int, edges []edge) (verts, edgeRel *relation.Relation) {
	deg := map[int64]int64{}
	for _, e := range edges {
		deg[e.src]++
	}
	verts = relation.New("vertices", relation.NewSchema("vertex:int", "vertex_value:float"))
	for v := 0; v < vertices; v++ {
		verts.MustAppend(relation.Row{relation.Int(int64(v)), relation.Float(1)})
	}
	edgeRel = relation.New("edges", relation.NewSchema("src:int", "dst:int", "vertex_degree:int"))
	for _, e := range edges {
		edgeRel.MustAppend(relation.Row{relation.Int(e.src), relation.Int(e.dst), relation.Int(deg[e.src])})
	}
	return verts, edgeRel
}

// edgeRelation lays edges out as (src, dst), the cross-community input.
func edgeRelation(name string, edges []edge) *relation.Relation {
	rel := relation.New(name, relation.NewSchema("src:int", "dst:int"))
	for _, e := range edges {
		rel.MustAppend(relation.Row{relation.Int(e.src), relation.Int(e.dst)})
	}
	return rel
}

// genCommunities draws two graphs of equal size that share exactly a third
// of their edges, so the cross-community intersection is neither empty nor
// everything, and the same size for every seed.
func genCommunities(r *rand.Rand, vertices, avgDeg int) (a, b []edge) {
	a = genEdges(r, vertices, avgDeg)
	inA := map[edge]bool{}
	for _, e := range a {
		inA[e] = true
	}
	for _, i := range r.Perm(len(a))[:len(a)/3] {
		b = append(b, a[i])
	}
	for _, e := range genEdges(r, vertices, avgDeg) {
		if len(b) < len(a) && !inA[e] {
			b = append(b, e)
		}
	}
	r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return a, b
}

// digest is an order-sensitive SHA-256 over staged inputs, for
// -check-determinism: paths are visited in sorted order and each relation
// contributes its schema and every value.
func digest(inputs map[string]*relation.Relation) string {
	paths := make([]string, 0, len(inputs))
	for p := range inputs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel := inputs[p]
		fmt.Fprintf(h, "%s\x00%s\x00%d\n", p, rel.Schema, len(rel.Rows))
		for _, row := range rel.Rows {
			for _, v := range row {
				switch v.Kind {
				case relation.KindInt:
					fmt.Fprintf(h, "i%d\t", v.I)
				case relation.KindFloat:
					fmt.Fprintf(h, "f%x\t", math.Float64bits(v.F))
				default:
					fmt.Fprintf(h, "s%q\t", v.S)
				}
			}
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
