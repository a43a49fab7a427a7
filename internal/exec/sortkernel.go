package exec

import (
	"sort"
	"sync"

	"musketeer/internal/relation"
)

// sortRowsBy returns a new slice of rows stably ordered by the key columns.
// The input is not mutated (other operators may share the row slice).
//
// Above ParallelThreshold the sort runs as a parallel stable merge sort:
// contiguous chunks are sorted concurrently with sort.SliceStable, then
// adjacent sorted runs merge pairwise (also concurrently) with ties taken
// from the left run — which preserves input order on equal keys, so the
// result is byte-identical to the serial stable sort.
func sortRowsBy(rows []relation.Row, keyIdx []int, desc bool) []relation.Row {
	out := make([]relation.Row, len(rows))
	copy(out, rows)
	less := func(a, b relation.Row) bool {
		for _, k := range keyIdx {
			c := a[k].Compare(b[k])
			if c == 0 {
				continue
			}
			if desc {
				return c > 0
			}
			return c < 0
		}
		return false
	}
	if len(out) < ParallelThreshold {
		sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
		return out
	}
	ranges := relation.ChunkRanges(len(out))
	var wg sync.WaitGroup
	for _, rg := range ranges {
		wg.Add(1)
		go func(chunk []relation.Row) {
			defer wg.Done()
			sort.SliceStable(chunk, func(i, j int) bool { return less(chunk[i], chunk[j]) })
		}(out[rg[0]:rg[1]])
	}
	wg.Wait()
	// Pairwise merge rounds until one run remains; src/dst ping-pong so each
	// round copies every row at most once.
	bounds := make([]int, 0, len(ranges)+1)
	bounds = append(bounds, 0)
	for _, rg := range ranges {
		bounds = append(bounds, rg[1])
	}
	src, dst := out, make([]relation.Row, len(out))
	for len(bounds) > 2 {
		next := make([]int, 0, len(bounds)/2+2)
		next = append(next, 0)
		var mwg sync.WaitGroup
		for i := 0; i+2 < len(bounds); i += 2 {
			lo, mid, hi := bounds[i], bounds[i+1], bounds[i+2]
			mwg.Add(1)
			go func(lo, mid, hi int) {
				defer mwg.Done()
				mergeRuns(dst[lo:hi], src[lo:mid], src[mid:hi], less)
			}(lo, mid, hi)
			next = append(next, hi)
		}
		if len(bounds)%2 == 0 {
			// Odd run count: the final run has no partner; copy it through.
			lo, hi := bounds[len(bounds)-2], bounds[len(bounds)-1]
			copy(dst[lo:hi], src[lo:hi])
			next = append(next, hi)
		}
		mwg.Wait()
		bounds = next
		src, dst = dst, src
	}
	return src
}

// mergeRuns stably merges sorted runs a and b into dst (len(dst) must equal
// len(a)+len(b)): on ties the element from a wins, keeping earlier input
// positions first.
func mergeRuns(dst, a, b []relation.Row, less func(x, y relation.Row) bool) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			dst[i+j] = b[j]
			j++
		} else {
			dst[i+j] = a[i]
			i++
		}
	}
	copy(dst[i+j:], a[i:])
	copy(dst[i+j+len(a[i:]):], b[j:])
}
