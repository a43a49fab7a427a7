package musketeer

import (
	"fmt"
	"math"
	"testing"

	"musketeer/internal/relation"
)

const cityVisitsHive = `
SELECT id, name, city FROM users AS u;
u JOIN visits ON u.id = visits.id AS uv;
SELECT city, SUM(n) AS total FROM uv GROUP BY city AS city_total;
`

// stageCityVisits stages a shuffle-heavy workload: wide integer keys and
// repetitive strings, the shape whose text rendering the columnar codec
// undercuts most.
func stageCityVisits(t *testing.T, m *Musketeer) Catalog {
	t.Helper()
	cities := []string{"cambridge", "oxford", "london", "bristol"}
	users := relation.New("users", NewSchema("id:int", "name:string", "city:string"))
	visits := relation.New("visits", NewSchema("id:int", "n:int"))
	for i := int64(0); i < 500; i++ {
		id := 1_000_000_000 + i*7919
		users.MustAppend(relation.Row{relation.Int(id), relation.Str(fmt.Sprintf("user-%06d", i)), relation.Str(cities[i%4])})
		visits.MustAppend(relation.Row{relation.Int(id), relation.Int(i % 50)})
	}
	users.LogicalBytes = users.PhysicalBytes() * 1000
	visits.LogicalBytes = visits.PhysicalBytes() * 1000
	if err := m.WriteInput("in/users", users); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteInput("in/visits", visits); err != nil {
		t.Fatal(err)
	}
	return Catalog{
		"users":  {Path: "in/users", Schema: users.Schema},
		"visits": {Path: "in/visits", Schema: visits.Schema},
	}
}

// TestEveryStoredFileIsColumnar runs the workload as three separate jobs —
// two relations cross a job boundary through the DFS — and pins that the
// storage format is invisible: both intermediates and the published sink are
// stored in the one format the DFS has, the sink reads back as text byte for
// byte what it was when every file was text, and the simulation is charged
// exactly what it was charged then (values pinned from the all-TSV run at
// 88c8d4b).
func TestEveryStoredFileIsColumnar(t *testing.T) {
	m := New(LocalCluster(7))
	wf, err := m.CompileHive(cityVisitsHive, stageCityVisits(t, m))
	if err != nil {
		t.Fatal(err)
	}
	part, err := wf.PlanUnmerged("spark")
	if err != nil {
		t.Fatal(err)
	}
	res, err := wf.Run(part)
	if err != nil {
		t.Fatal(err)
	}
	session := m.fs.Namespace(res.Namespace)
	for _, path := range []string{"u", "uv", "city_total"} {
		if _, err := session.Stat(path); err != nil {
			t.Errorf("%s is not stored: %v", path, err)
		}
	}
	// Sized as text, whatever they are stored as.
	if st, _ := session.Stat("uv"); st.PhysicalBytes != 16963 || st.LogicalBytes != 16900000 {
		t.Errorf("uv stats as %d bytes (logical %d), its text is 16963 (16900000)", st.PhysicalBytes, st.LogicalBytes)
	}
	const sink = "#schema\tcity:string\ttotal:int\n#logical\t52000\ncambridge\t3000\noxford\t3125\nlondon\t3000\nbristol\t3125\n"
	if _, err := m.fs.Stat("city_total"); err != nil {
		t.Errorf("published sink is not stored: %v", err)
	}
	if out, err := m.ReadOutput("city_total"); err != nil || string(out.EncodeBytes()) != sink {
		t.Errorf("published sink (%v):\n%s\nwant:\n%s", err, out.EncodeBytes(), sink)
	}
	if got := math.Float64bits(float64(res.Makespan)); got != 0x404e8182bc3f2fc4 {
		t.Errorf("makespan %v (%#x), want 61.0s (0x404e8182bc3f2fc4)", res.Makespan, got)
	}
	for name, want := range map[string]int64{"dfs_pull_bytes_total": 54800000, "dfs_push_bytes_total": 32452000} {
		if got := m.Metrics().Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestLoopCarriedOutputIsTextEvenWhenAJobReadsIt: in this loop the carried
// relation also feeds a second body job, so on hadoop — a job per shuffle,
// the driver copying the carried file to where the next iteration and, in the
// end, the user finds it — the file another job reads is the file that gets
// published. Like every stored file it is columnar, and a user reads it as
// text: the workflow's result renders to the bytes of the single-job naiad
// run, which writes it once, as a sink.
func TestLoopCarriedOutputIsTextEvenWhenAJobReadsIt(t *testing.T) {
	const src = `
ranks = WHILE (iteration < 3) CARRY verts = new_verts {
    sent      = JOIN verts, edges ON vertex = src;
    gathered  = AGG SUM(rank) AS rank FROM sent GROUP BY dst;
    new_verts = PROJECT dst AS vertex, rank FROM gathered;
    census    = AGG COUNT(*) AS n FROM new_verts GROUP BY vertex;
    heaviest  = AGG MAX(rank) AS top FROM new_verts GROUP BY vertex;
};
`
	published := map[string][]byte{}
	for _, engine := range []string{"hadoop", "naiad"} {
		m := New(EC2(16))
		verts := relation.New("verts", NewSchema("vertex:int", "rank:float"))
		edges := relation.New("edges", NewSchema("src:int", "dst:int"))
		for i := int64(0); i < 40; i++ {
			verts.MustAppend(relation.Row{relation.Int(i), relation.Float(1 / float64(i+3))})
			edges.MustAppend(relation.Row{relation.Int(i), relation.Int((i * 7) % 40)})
			edges.MustAppend(relation.Row{relation.Int(i), relation.Int((i + 1) % 40)})
		}
		for path, rel := range map[string]*Relation{"in/verts": verts, "in/edges": edges} {
			if err := m.WriteInput(path, rel); err != nil {
				t.Fatal(err)
			}
		}
		wf, err := m.CompileBEER(src, Catalog{"verts": {Path: "in/verts", Schema: verts.Schema}, "edges": {Path: "in/edges", Schema: edges.Schema}})
		if err != nil {
			t.Fatal(err)
		}
		part, err := wf.PlanUnmerged(engine)
		if err != nil {
			t.Fatal(err)
		}
		res, err := wf.Run(part)
		if err != nil {
			t.Fatal(err)
		}
		if engine == "hadoop" && len(res.Jobs) != 12 {
			t.Fatalf("hadoop ran %d jobs, want 4 an iteration: new_verts on its own, read by census and by heaviest", len(res.Jobs))
		}
		st, err := m.fs.Stat("ranks")
		if err != nil {
			t.Errorf("%s: the published result is not stored: %v", engine, err)
		}
		out, err := m.ReadOutput("ranks")
		if err != nil {
			t.Fatal(err)
		}
		if published[engine] = out.EncodeBytes(); int64(len(published[engine])) != st.PhysicalBytes || out.NumRows() == 0 {
			t.Errorf("%s: %d rows re-encode to %d bytes, the file stats as %d", engine, out.NumRows(), len(published[engine]), st.PhysicalBytes)
		}
	}
	if string(published["hadoop"]) != string(published["naiad"]) {
		t.Errorf("hadoop published:\n%s\nnaiad published:\n%s", published["hadoop"], published["naiad"])
	}
}
