package perf

import (
	"fmt"
	"math"
	"sort"

	"musketeer/internal/relation"
)

// The reference checker recomputes every executed member's sink directly
// from the generated inputs with plain loops and maps — no exec, core or
// engine code — so a kernel bug cannot hide behind a matching bug in the
// checker. Relations are used only as row containers.

// refQ17 is TPC-H Q17: the revenue of small-quantity orders (quantity below
// a fifth of the part's average) for Brand#23 parts in MED BOX containers.
func refQ17(lineitem, part *relation.Relation) *relation.Relation {
	target := map[int64]bool{}
	for _, p := range part.Rows {
		if p[1].S == "Brand#23" && p[2].S == "MED BOX" {
			target[p[0].I] = true
		}
	}
	sum, n := map[int64]float64{}, map[int64]float64{}
	for _, l := range lineitem.Rows {
		sum[l[0].I] += l[1].F
		n[l[0].I]++
	}
	out := relation.New("q17", relation.NewSchema("revenue:float"))
	revenue, any := 0.0, false
	for _, l := range lineitem.Rows {
		k := l[0].I
		if target[k] && l[1].F < 0.2*(sum[k]/n[k]) {
			revenue += l[2].F
			any = true
		}
	}
	if any {
		out.MustAppend(relation.Row{relation.Float(revenue)})
	}
	return out
}

// refNetflix is the item-based recommender: for each user, the unseen-or-
// seen movie with the highest similarity-weighted score (ties all kept).
// Columns are (user, r_movie, total, best), as the final join lays them out.
func refNetflix(ratings, movies *relation.Relation, movieLimit int64) *relation.Relation {
	type rating struct {
		movie int64
		score float64
	}
	selected := map[int64]bool{}
	for _, m := range movies.Rows {
		if m[0].I < movieLimit {
			selected[m[0].I] = true
		}
	}
	byUser := map[int64][]rating{}
	for _, r := range ratings.Rows {
		if selected[r[1].I] {
			byUser[r[0].I] = append(byUser[r[0].I], rating{r[1].I, r[2].F})
		}
	}
	type pair struct{ a, b int64 }
	sim, cnt := map[pair]float64{}, map[pair]float64{}
	for _, rs := range byUser {
		for _, x := range rs {
			for _, y := range rs {
				if x.movie != y.movie {
					sim[pair{x.movie, y.movie}] += x.score * y.score
					cnt[pair{x.movie, y.movie}]++
				}
			}
		}
	}
	neighbours := map[int64][]rating{} // movie → (other movie, normalised similarity)
	for p, s := range sim {
		neighbours[p.a] = append(neighbours[p.a], rating{p.b, s / cnt[p]})
	}
	total := map[pair]float64{} // (user, recommended movie) → score
	for _, r := range ratings.Rows {
		for _, nb := range neighbours[r[1].I] {
			total[pair{r[0].I, nb.movie}] += r[2].F * nb.score
		}
	}
	best := map[int64]float64{}
	for p, t := range total {
		if b, ok := best[p.a]; !ok || t > b {
			best[p.a] = t
		}
	}
	out := relation.New("top_recommendation", relation.NewSchema("user:int", "r_movie:int", "total:float", "best:float"))
	for p, t := range total {
		if t >= best[p.a] {
			out.MustAppend(relation.Row{relation.Int(p.a), relation.Int(p.b), relation.Float(t), relation.Float(best[p.a])})
		}
	}
	return out
}

// pageRank iterates rank' = damping·Σ(rank/outdegree over in-edges) + 0.15
// with the workflows' inner-join semantics: only vertices that received a
// message carry a rank into the next iteration.
func pageRank(rank map[int64]float64, edges []edge, iterations int, damping float64) map[int64]float64 {
	deg := map[int64]float64{}
	for _, e := range edges {
		deg[e.src]++
	}
	for it := 0; it < iterations; it++ {
		msg := map[int64]float64{}
		for _, e := range edges {
			if r, ok := rank[e.src]; ok {
				msg[e.dst] += r / deg[e.src]
			}
		}
		for v, s := range msg {
			msg[v] = s*damping + 0.15
		}
		rank = msg
	}
	return rank
}

func rankRelation(name, valueCol string, rank map[int64]float64) *relation.Relation {
	out := relation.New(name, relation.NewSchema("vertex:int", valueCol+":float"))
	for v, r := range rank {
		out.MustAppend(relation.Row{relation.Int(v), relation.Float(r)})
	}
	return out
}

// refPageRank is the GAS member: every vertex starts at rank 1.
func refPageRank(vertices int, edges []edge, iterations int) *relation.Relation {
	rank := map[int64]float64{}
	for v := 0; v < vertices; v++ {
		rank[int64(v)] = 1
	}
	return rankRelation("pagerank", "vertex_value", pageRank(rank, edges, iterations, 0.85))
}

// refCrossCommunity is the BEER member: PageRank over the edges present in
// both communities, starting from rank 1 on every vertex with an out-edge
// in the common subgraph.
func refCrossCommunity(a, b []edge, iterations int, damping float64) *relation.Relation {
	inB := map[edge]bool{}
	for _, e := range b {
		inB[e] = true
	}
	var common []edge
	seen := map[edge]bool{}
	rank := map[int64]float64{}
	for _, e := range a {
		if inB[e] && !seen[e] {
			seen[e] = true
			common = append(common, e)
			rank[e.src] = 1
		}
	}
	return rankRelation("ccpr", "rank", pageRank(rank, common, iterations, damping))
}

// floatTolerance is the relative error two floats may differ by and still
// count as equal: engines sum in a different order than the references.
const floatTolerance = 1e-9

// compareRows orders rows by their non-float columns first, then floats, so
// two relations that agree up to float rounding sort into the same order.
func compareRows(a, b relation.Row) int {
	for pass := 0; pass < 2; pass++ {
		for i := range a {
			if (a[i].Kind == relation.KindFloat) != (pass == 1) {
				continue
			}
			var c int
			switch a[i].Kind {
			case relation.KindInt:
				c = cmpOrdered(a[i].I, b[i].I)
			case relation.KindFloat:
				c = cmpOrdered(a[i].F, b[i].F)
			default:
				c = cmpOrdered(a[i].S, b[i].S)
			}
			if c != 0 {
				return c
			}
		}
	}
	return 0
}

func cmpOrdered[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// sameMultiset reports whether got and want hold the same rows, ignoring
// order and column names, with floats equal to floatTolerance. Neither
// argument is modified.
func sameMultiset(got, want *relation.Relation) error {
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%s: %d rows, reference has %d", want.Name, len(got.Rows), len(want.Rows))
	}
	if got.Schema.Arity() != want.Schema.Arity() {
		return fmt.Errorf("%s: schema %s, reference has %s", want.Name, got.Schema, want.Schema)
	}
	for i, c := range want.Schema.Cols {
		if got.Schema.Cols[i].Kind != c.Kind {
			return fmt.Errorf("%s: schema %s, reference has %s", want.Name, got.Schema, want.Schema)
		}
	}
	g := append([]relation.Row(nil), got.Rows...)
	w := append([]relation.Row(nil), want.Rows...)
	sort.Slice(g, func(i, j int) bool { return compareRows(g[i], g[j]) < 0 })
	sort.Slice(w, func(i, j int) bool { return compareRows(w[i], w[j]) < 0 })
	for i := range w {
		for c := range w[i] {
			a, b := g[i][c], w[i][c]
			ok := a.Kind == b.Kind && a.I == b.I && a.S == b.S
			if ok && a.Kind == relation.KindFloat {
				ok = math.Abs(a.F-b.F) <= floatTolerance*math.Max(math.Abs(a.F), math.Abs(b.F))
			}
			if !ok {
				return fmt.Errorf("%s: sorted row %d column %d is %v, reference has %v", want.Name, i, c, a, b)
			}
		}
	}
	return nil
}
