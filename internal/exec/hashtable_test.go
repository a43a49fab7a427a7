package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// TestKeyIndexMatchesMap drives keyIndex through find/insert directly, with
// hashes the test chooses, against a map[string]int reference. Every hashing
// scheme starts from the smallest index so the run crosses many resizes; the
// colliding ones give thousands of different keys the same hash (one of them
// the all-ones hash, whose probe run wraps around the slot array), so only
// the byte comparison can tell them apart.
func TestKeyIndexMatchesMap(t *testing.T) {
	schemes := map[string]func(key string) uint64{
		"spread": func(key string) uint64 { // FNV-1a
			h := uint64(14695981039346656037)
			for i := 0; i < len(key); i++ {
				h = (h ^ uint64(key[i])) * 1099511628211
			}
			return h
		},
		"one-hash":   func(string) uint64 { return ^uint64(0) },
		"three-hash": func(key string) uint64 { return []uint64{0, 7, ^uint64(0)}[len(key)%3] },
	}
	for name, hashOf := range schemes {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			x := newKeyIndex(0)
			ref := map[string]int{}
			var order []string
			keys := []string{""} // the empty key is a key like any other
			for i := 0; i < 1500; i++ {
				keys = append(keys, fmt.Sprintf("%x", r.Int63n(1<<uint(1+r.Intn(40)))))
			}
			for step := 0; step < 6000; step++ {
				key := keys[r.Intn(len(keys))]
				want, present := ref[key]
				if !present {
					want = -1
				}
				if got := x.find(hashOf(key), []byte(key)); got != want {
					t.Fatalf("step %d: find(%q) = %d, want %d", step, key, got, want)
				}
				if r.Intn(3) == 0 {
					continue
				}
				idx, added := x.insert(hashOf(key), []byte(key))
				if !present {
					want = len(order)
					ref[key] = want
					order = append(order, key)
				}
				if idx != want || added == present {
					t.Fatalf("step %d: insert(%q) = %d, %v; want %d, %v", step, key, idx, added, want, !present)
				}
			}
			if len(order) < 1000 || len(x.slots) < 2048 {
				t.Fatalf("run too small to cross resizes: %d keys, %d slots", len(order), len(x.slots))
			}
			if len(x.entries) != len(order) {
				t.Fatalf("%d entries, want %d", len(x.entries), len(order))
			}
			// Index order is insertion order, and every key's bytes survived
			// the key buffer's regrowths.
			for i, key := range order {
				if got := string(x.key(i)); got != key {
					t.Fatalf("key(%d) = %q, want %q", i, got, key)
				}
			}
		})
	}
}

// TestAggTableAbsorbKeepsFirstAppearanceOrder: absorbing a partial table
// keeps the receiver's groups in place, merges the shared ones and appends
// the new ones in the partial table's own order.
func TestAggTableAbsorbKeepsFirstAppearanceOrder(t *testing.T) {
	sch := relation.NewSchema("g:string", "v:int")
	d := ir.NewDAG()
	in := d.AddInput("in", "in", sch)
	op := d.Add(ir.OpAgg, "out", ir.Params{GroupBy: []string{"g"}, Aggs: []ir.AggSpec{
		{Func: ir.AggSum, Col: "v", As: "s"}, {Func: ir.AggCount, As: "n"},
		{Func: ir.AggMin, Col: "v", As: "lo"}, {Func: ir.AggMax, Col: "v", As: "hi"}, {Func: ir.AggAvg, Col: "v", As: "avg"},
	}}, in)
	sp, err := resolveAggSpec(op, sch)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(groups string, base int64) *aggTable {
		tb := newAggTable(sp)
		for i, g := range groups {
			tb.add(relation.Row{relation.Str(string(g)), relation.Int(base + int64(i))})
		}
		return tb
	}
	// 40 distinct groups on each side cross the 8- and 16-group slabs.
	left, right := "abcab", "dbeadd"
	for c := 'A'; c < 'A'+40; c++ {
		left, right = left+string(c), string(c+20)+right
	}
	whole := fill(left, 0)
	whole.absorb(fill(right, 100))
	serial := fill(left, 0)
	for i, g := range right {
		serial.add(relation.Row{relation.Str(string(g)), relation.Int(100 + int64(i))})
	}
	got, want := relation.New("got", sch), relation.New("want", sch)
	emitAggRows(sch, whole, 1, got)
	emitAggRows(sch, serial, 1, want)
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%d groups, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if rowsText(got.Rows[i:i+1]) != rowsText(want.Rows[i:i+1]) {
			t.Errorf("group %d: absorbed %v, serial %v", i, got.Rows[i], want.Rows[i])
		}
	}
}
