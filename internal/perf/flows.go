package perf

import (
	"fmt"
	"math/rand"

	"musketeer"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// member is one workflow of a workload: its staged inputs, how to compile
// it against a deployment, the sink it publishes, and — for workflows that
// execute — the independently computed expected sink (ref.go).
type member struct {
	name    string
	inputs  map[string]*relation.Relation // DFS path → relation
	compile func(m *musketeer.Musketeer) (*musketeer.Workflow, error)
	sink    string
	ref     func() *relation.Relation
	want    *relation.Relation
}

// reference computes the member's expected sink once, on first use, so the
// checker's own work is not charged to setup_s.
func (mb *member) reference() *relation.Relation {
	if mb.want == nil {
		mb.want = mb.ref()
	}
	return mb.want
}

const q17Hive = `
SELECT partkey FROM part WHERE brand == "Brand#23" AND container == "MED BOX" AS target_parts;
SELECT partkey, AVG(quantity) AS avg_qty FROM lineitem GROUP BY partkey AS part_avg;
lineitem JOIN target_parts ON lineitem.partkey = target_parts.partkey AS target_items;
target_items JOIN part_avg ON target_items.partkey = part_avg.partkey AS with_avg;
SELECT * FROM with_avg WHERE quantity < 0.2 * avg_qty AS small_orders;
SELECT SUM(extendedprice) AS revenue FROM small_orders AS q17;
`

// q17Pig is Q17's shape in the Pig subset, which has neither a scaled
// comparison nor a global aggregate: the threshold is computed as a column
// and revenue is summed per part. It is planned, never executed.
const q17Pig = `
tp    = FILTER part BY brand == 'Brand#23' AND container == 'MED BOX';
tkeys = FOREACH tp GENERATE partkey;
g     = GROUP lineitem BY (partkey);
pavg  = FOREACH g GENERATE group, AVG(lineitem.quantity) AS avg_qty;
items = JOIN lineitem BY partkey, tkeys BY partkey;
wavg  = JOIN items BY partkey, pavg BY partkey;
thr   = FOREACH wavg GENERATE partkey, quantity, extendedprice, avg_qty * 0.2 AS limit_qty;
small = FILTER thr BY quantity < 10;
gs    = GROUP small BY (partkey);
q17p  = FOREACH gs GENERATE group, SUM(small.extendedprice) AS revenue;
`

const pageRankGAS = `
GATHER = {
    SUM(vertex_value)
}
APPLY = {
    MUL [vertex_value, 0.85]
    SUM [vertex_value, 0.15]
}
SCATTER = {
    DIV [vertex_value, vertex_degree]
}
ITERATION_STOP = (iteration < %d)
ITERATION = {
    SUM [iteration, 1]
}
`

// crossCommunityBEER renders cross-community PageRank (paper §6.3) in BEER:
// a batch intersection of two edge sets, then iterative PageRank over the
// common subgraph. The damping literal is part of the canonical hash, so
// each distinct value is its own plan-cache entry.
func crossCommunityBEER(iterations int, damping float64) string {
	return fmt.Sprintf(`
common  = INTERSECT edges_a, edges_b;
degs    = AGG COUNT(*) AS degree FROM common GROUP BY src;
cedges  = JOIN common, degs ON src = src;
srcs    = PROJECT src FROM common;
dsrcs   = DISTINCT srcs;
seeded  = MUL [src, 0.0] AS rank FROM dsrcs;
ranked  = SUM [rank, 1.0] FROM seeded;
cverts  = PROJECT src AS vertex, rank FROM ranked;
ccpr    = WHILE (iteration < %d) CARRY cverts = new_cverts {
    sent     = JOIN cverts, cedges ON vertex = src;
    shared   = DIV [rank, degree] FROM sent;
    gathered = AGG SUM(rank) AS rank FROM shared GROUP BY dst;
    damped   = MUL [rank, %.6f] FROM gathered;
    applied  = SUM [rank, 0.15] FROM damped;
    new_cverts = PROJECT dst AS vertex, rank FROM applied;
};
`, iterations, damping)
}

var (
	edgeSchema = []string{"src:int", "dst:int"}
	tpchCat    = musketeer.Catalog{
		"lineitem": {Path: "in/tpch/lineitem", Schema: relation.NewSchema("partkey:int", "quantity:float", "extendedprice:float")},
		"part":     {Path: "in/tpch/part", Schema: relation.NewSchema("partkey:int", "brand:string", "container:string")},
	}
	netflixCat = musketeer.Catalog{
		"ratings": {Path: "in/netflix/ratings", Schema: relation.NewSchema("user:int", "movie:int", "rating:float")},
		"movies":  {Path: "in/netflix/movies", Schema: relation.NewSchema("movie:int", "year:int")},
	}
	pageRankCat = musketeer.Catalog{
		"vertices": {Path: "in/pr/vertices", Schema: relation.NewSchema("vertex:int", "vertex_value:float")},
		"edges":    {Path: "in/pr/edges", Schema: relation.NewSchema("src:int", "dst:int", "vertex_degree:int")},
	}
	ccCat = musketeer.Catalog{
		"edges_a": {Path: "in/cc/edges_a", Schema: relation.NewSchema(edgeSchema...)},
		"edges_b": {Path: "in/cc/edges_b", Schema: relation.NewSchema(edgeSchema...)},
	}
	// serveCat binds the same tables to tenant-relative paths, as the serve
	// API's submissions do.
	serveCat = musketeer.Catalog{
		"edges_a": {Path: "in/edges_a", Schema: relation.NewSchema(edgeSchema...)},
		"edges_b": {Path: "in/edges_b", Schema: relation.NewSchema(edgeSchema...)},
	}
	randomCat = musketeer.Catalog{
		"t": {Path: "in/random/t", Schema: relation.NewSchema("k:int", "g:int", "a:float", "b:float")},
	}
)

// netflixCore is the 13-operator item-based recommendation pipeline (paper
// §6.4): restrict to a movie subset, build co-rated pairs by self-joining
// on user, score pair similarity, project each user's ratings through the
// similarity matrix and keep each user's top recommendation.
func netflixCore(b *musketeer.LindiBuilder, movieLimit int64) {
	sel := b.From("movies").
		Where(ir.Cmp(ir.ColRef("movie"), ir.CmpLt, ir.LitOp(relation.Int(movieLimit)))).
		Named("sel_movies")
	r1 := b.From("ratings").Join(sel, []string{"movie"}, []string{"movie"}).Named("target_ratings")
	sim := r1.Join(r1, []string{"user"}, []string{"user"}).Named("pairs").
		Where(ir.Cmp(ir.ColRef("movie"), ir.CmpNe, ir.ColRef("r_movie"))).
		Compute("prod", ir.ColRef("rating"), ir.ArithMul, ir.ColRef("r_rating")).
		GroupBy([]string{"movie", "r_movie"}).Sum("prod", "sim").Count("n").Done().
		Compute("nsim", ir.ColRef("sim"), ir.ArithDiv, ir.ColRef("n")).
		Named("similarity")
	rec := b.From("ratings").Join(sim, []string{"movie"}, []string{"movie"}).
		Compute("score", ir.ColRef("rating"), ir.ArithMul, ir.ColRef("nsim")).
		GroupBy([]string{"user", "r_movie"}).Sum("score", "total").Done().
		Named("recommendations")
	best := rec.GroupBy([]string{"user"}).Max("total", "best").Done().Named("best")
	rec.Join(best, []string{"user"}, []string{"user"}).
		Where(ir.Cmp(ir.ColRef("total"), ir.CmpGe, ir.ColRef("best"))).
		Named("top_recommendation")
}

// netflixExtended appends the five operators of the paper's §6.6 extension
// (18 in all) and keeps the first prefix compute operators.
func netflixExtended(m *musketeer.Musketeer, movieLimit int64, prefix int) (*musketeer.Workflow, error) {
	b := musketeer.NewLindiBuilder(netflixCat)
	netflixCore(b, movieLimit)
	b.From("top_recommendation").
		Select("user", "r_movie", "total").
		Distinct().
		Compute("boost", ir.ColRef("total"), ir.ArithMul, ir.LitOp(relation.Float(1.1))).
		Where(ir.Cmp(ir.ColRef("boost"), ir.CmpGt, ir.LitOp(relation.Float(0)))).
		GroupBy([]string{"r_movie"}).Count("fans").Done().
		Named("movie_fans")
	dag, err := b.Build()
	if err != nil {
		return nil, err
	}
	cut, err := truncate(dag, prefix)
	if err != nil {
		return nil, err
	}
	return m.FromDAG(cut)
}

// truncate keeps the first n compute operators in topological order and
// the inputs they read.
func truncate(dag *ir.DAG, n int) (*ir.DAG, error) {
	order, err := dag.TopoSort()
	if err != nil {
		return nil, err
	}
	keep := map[*ir.Op]bool{}
	for _, op := range order {
		if op.Type == ir.OpInput || n == 0 {
			continue
		}
		ok := true
		for _, in := range op.Inputs {
			ok = ok && (in.Type == ir.OpInput || keep[in])
		}
		if ok {
			keep[op] = true
			n--
		}
	}
	for op := range keep {
		for _, in := range op.Inputs {
			keep[in] = true
		}
	}
	out := ir.NewDAG()
	mapped := map[*ir.Op]*ir.Op{}
	for _, op := range order {
		if !keep[op] {
			continue
		}
		ins := make([]*ir.Op, len(op.Inputs))
		for i, in := range op.Inputs {
			ins[i] = mapped[in]
		}
		mapped[op] = out.Add(op.Type, op.Out, op.Params, ins...)
	}
	return out, nil
}

// randomDAG builds a seeded chain of nOps schema-preserving operators over
// table t, interleaving single operators with four-operator diamonds
// (filter ∥ aggregate → join → project). It is large enough (20–40
// operators) that the partitioner's dynamic heuristic, not the exhaustive
// search, plans it.
func randomDAG(m *musketeer.Musketeer, r *rand.Rand, nOps int, sink string) (*musketeer.Workflow, error) {
	b := musketeer.NewLindiBuilder(randomCat)
	cur := b.From("t")
	lit := func() ir.Operand { return ir.LitOp(relation.Float(cents(0.5 + r.Float64()))) }
	for n := 0; n < nOps; {
		switch k := r.Intn(5); {
		case k == 0 && nOps-n >= 4:
			left := cur.Where(ir.Cmp(ir.ColRef("a"), ir.CmpGt, lit()))
			peak := cur.GroupBy([]string{"k"}).Max("b", "peak").Done()
			cur = left.Join(peak, []string{"k"}, []string{"k"}).Select("k", "g", "a", "b")
			n += 4
		case k == 1:
			cur = cur.Where(ir.Cmp(ir.ColRef("b"), ir.CmpGt, lit()))
			n++
		case k == 2:
			cur = cur.Compute("a", ir.ColRef("a"), ir.ArithMul, lit())
			n++
		case k == 3:
			cur = cur.Compute("b", ir.ColRef("b"), ir.ArithAdd, ir.ColRef("a"))
			n++
		default:
			cur = cur.Distinct()
			n++
		}
	}
	cur.Named(sink)
	return m.CompileLindi(b)
}

// genRandomTable is the tiny staged input of the random DAGs.
func genRandomTable(r *rand.Rand, rows int) *relation.Relation {
	t := relation.New("t", randomCat["t"].Schema)
	for i := 0; i < rows; i++ {
		t.MustAppend(relation.Row{
			relation.Int(int64(r.Intn(rows/4 + 1))), relation.Int(int64(r.Intn(8))),
			relation.Float(cents(2 * r.Float64())), relation.Float(cents(2 * r.Float64())),
		})
	}
	return t
}

// batchMembers are the four workflows both batch workloads rotate through,
// on identical data.
func batchMembers(seed int64, sz Sizes) []*member {
	r := rand.New(rand.NewSource(seed))
	lineitem, part := genTPCH(r, sz.Lineitem, sz.Parts)
	ratings, movies := genNetflix(r, sz.Users, sz.Movies, sz.RatingsPer, sz.MovieLimit)
	prEdges := genEdges(r, sz.PRVertices, sz.PRDegree)
	verts, edges := gasRelations(sz.PRVertices, prEdges)
	ccA, ccB := genCommunities(r, sz.CCVertices, sz.CCDegree)
	gasSrc := fmt.Sprintf(pageRankGAS, sz.PRIterations)
	beerSrc := crossCommunityBEER(sz.CCIterations, 0.85)
	return []*member{
		{
			name:   "tpch_q17_hive",
			inputs: map[string]*relation.Relation{"in/tpch/lineitem": lineitem, "in/tpch/part": part},
			compile: func(m *musketeer.Musketeer) (*musketeer.Workflow, error) {
				return m.CompileHive(q17Hive, tpchCat)
			},
			sink: "q17",
			ref:  func() *relation.Relation { return refQ17(lineitem, part) },
		},
		{
			name:   "netflix_lindi",
			inputs: map[string]*relation.Relation{"in/netflix/ratings": ratings, "in/netflix/movies": movies},
			compile: func(m *musketeer.Musketeer) (*musketeer.Workflow, error) {
				b := musketeer.NewLindiBuilder(netflixCat)
				netflixCore(b, sz.MovieLimit)
				return m.CompileLindi(b)
			},
			sink: "top_recommendation",
			ref:  func() *relation.Relation { return refNetflix(ratings, movies, sz.MovieLimit) },
		},
		{
			name:   "pagerank_gas",
			inputs: map[string]*relation.Relation{"in/pr/vertices": verts, "in/pr/edges": edges},
			compile: func(m *musketeer.Musketeer) (*musketeer.Workflow, error) {
				return m.CompileGAS(gasSrc, pageRankCat, musketeer.GASConfig{Vertices: "vertices", Edges: "edges", Output: "pagerank"})
			},
			sink: "pagerank",
			ref:  func() *relation.Relation { return refPageRank(sz.PRVertices, prEdges, sz.PRIterations) },
		},
		{
			name:   "cross_community_beer",
			inputs: map[string]*relation.Relation{"in/cc/edges_a": edgeRelation("edges_a", ccA), "in/cc/edges_b": edgeRelation("edges_b", ccB)},
			compile: func(m *musketeer.Musketeer) (*musketeer.Workflow, error) {
				return m.CompileBEER(beerSrc, ccCat)
			},
			sink: "ccpr",
			ref:  func() *relation.Relation { return refCrossCommunity(ccA, ccB, sz.CCIterations, 0.85) },
		},
	}
}

// randomDAGSeed fixes the shapes of plan_cold's random DAGs.
const randomDAGSeed = 20150421

// planMovieLimit is the NetFlix movie subset of plan_cold's tiny inputs.
const planMovieLimit = 18

// planMembers is plan_cold's fixed DAG suite over tiny staged inputs:
// NetflixExtended prefixes 8…18 (exhaustive search to 16 operators, the
// dynamic heuristic beyond), Q17 in Hive and Pig, the BEER and GAS
// PageRanks, and random 20–40-operator chain/diamond DAGs. The suite is the
// same for every seed — the random DAGs are drawn from fixed seeds of their
// own — and the seed only fills the staged inputs.
func planMembers(seed int64, sz Sizes) []*member {
	r := rand.New(rand.NewSource(seed))
	lineitem, part := genTPCH(r, sz.PlanRows*4, sz.PlanRows)
	ratings, movies := genNetflix(r, sz.PlanRows, 24, 4, planMovieLimit)
	prEdges := genEdges(r, sz.PlanRows, 3)
	verts, edges := gasRelations(sz.PlanRows, prEdges)
	ccA, ccB := genCommunities(r, sz.PlanRows, 3)
	inputs := map[string]*relation.Relation{
		"in/tpch/lineitem": lineitem, "in/tpch/part": part,
		"in/netflix/ratings": ratings, "in/netflix/movies": movies,
		"in/pr/vertices": verts, "in/pr/edges": edges,
		"in/cc/edges_a": edgeRelation("edges_a", ccA), "in/cc/edges_b": edgeRelation("edges_b", ccB),
		"in/random/t": genRandomTable(r, sz.PlanRows),
	}
	gasSrc := fmt.Sprintf(pageRankGAS, 5)
	beerSrc := crossCommunityBEER(5, 0.85)
	// The first member carries the shared inputs; the rest stage nothing.
	var ms []*member
	for k := 8; k <= 18; k++ {
		k := k
		ms = append(ms, &member{
			name: fmt.Sprintf("netflix_ext_%02d", k),
			compile: func(m *musketeer.Musketeer) (*musketeer.Workflow, error) {
				return netflixExtended(m, planMovieLimit, k)
			},
		})
	}
	ms[0].inputs = inputs
	ms = append(ms,
		&member{name: "tpch_q17_hive", compile: func(m *musketeer.Musketeer) (*musketeer.Workflow, error) {
			return m.CompileHive(q17Hive, tpchCat)
		}},
		&member{name: "tpch_q17_pig", compile: func(m *musketeer.Musketeer) (*musketeer.Workflow, error) {
			return m.CompilePig(q17Pig, tpchCat)
		}},
		&member{name: "cross_community_beer", compile: func(m *musketeer.Musketeer) (*musketeer.Workflow, error) {
			return m.CompileBEER(beerSrc, ccCat)
		}},
		&member{name: "pagerank_gas", compile: func(m *musketeer.Musketeer) (*musketeer.Workflow, error) {
			return m.CompileGAS(gasSrc, pageRankCat, musketeer.GASConfig{Vertices: "vertices", Edges: "edges", Output: "pagerank"})
		}},
	)
	shapes := rand.New(rand.NewSource(randomDAGSeed))
	for i := 0; i < sz.RandomDAGs; i++ {
		dagSeed, nOps, sink := shapes.Int63(), sz.RandomDAGMinOps+shapes.Intn(sz.RandomDAGSpanOps), fmt.Sprintf("random_%d", i)
		ms = append(ms, &member{
			name: fmt.Sprintf("random_dag_%d_%dops", i, nOps),
			compile: func(m *musketeer.Musketeer) (*musketeer.Workflow, error) {
				return randomDAG(m, rand.New(rand.NewSource(dagSeed)), nOps, sink)
			},
		})
	}
	return ms
}
