package relation

import (
	"hash/maphash"
	"math/bits"
)

// keySeed is the process-wide seed for hashed row keys. All KeyHashers share
// it, so a hash table built by one goroutine can be probed by others (the
// parallel join kernel does exactly that). The seed is randomized per
// process by hash/maphash, which keeps bucket distribution unpredictable;
// wordSeed, the word mixer's, is drawn from it.
var (
	keySeed  = maphash.MakeSeed()
	wordSeed = maphash.Bytes(keySeed, nil)
)

// MaxWordCells is the most cells a word key has: one tag bit each fits in the
// low 31 bits of a word, leaving the rest of it to the tables.
const MaxWordCells = 31

// KeyHasher computes keys of projected rows into reusable scratch, so keying
// a group-by or join probe allocates nothing and renders nothing.
//
// A KeyHasher is not safe for concurrent use; parallel kernels create one
// per worker (they still hash compatibly because the seeds are shared).
type KeyHasher struct {
	cells   []uint64
	scratch []byte
}

// KeyAt returns the join or group key of row i of b projected onto cols,
// taken from the vectors — a typed vector's numbers without building a cell:
// its hash and, for a word key, its cells and tags, or, for a byte key, its
// bytes (k is nil for a word key). A word key has at most MaxWordCells cells,
// each a number — an int, a float, or a string that is a number's text — and
// is a word per cell, the bits Row.AppendKey writes after the cell's tag,
// with bit j of tags set when cell j is a float's bits. Any other key is a
// byte key, its AppendKey encoding. Two keys are equal exactly when their
// AppendKey encodings are: word keys by their words, byte keys by their
// bytes, and a word key never equals a byte key of as many cells. Equal keys
// hash alike.
//
// The key is returned as values, not a struct, so it stays in registers.
// Cells and k alias the hasher's scratch and are only valid until the next
// call; callers that retain them (hash-table inserts) must copy them first.
func (h *KeyHasher) KeyAt(b *Batch, cols []int, i int) (hash, tags uint64, cells []uint64, k []byte) {
	if cap(h.cells) < len(cols) {
		h.cells = make([]uint64, len(cols))
	}
	cells = h.cells[:len(cols)]
	if len(cols) == 1 && b.Cols[cols[0]].Is(KindInt) {
		cells[0] = uint64(b.Cols[cols[0]].Ints[i]) // one int: its word, tag keyInt (0)
		return hashWords(cells, 0), 0, cells, nil
	}
	for j, c := range cols {
		v := &b.Cols[c]
		var tag byte
		var bits uint64
		switch {
		case v.Vals != nil:
			tag, bits = keyCell(&v.Vals[i])
		case v.Kind == KindInt:
			tag, bits = keyInt, uint64(v.Ints[i])
		case v.Kind == KindFloat:
			tag, bits = floatKey(v.Floats[i])
		default:
			cell := Str(v.Strs[i])
			tag, bits = keyCell(&cell)
		}
		if tag == keyString || j == MaxWordCells {
			h.scratch = h.scratch[:0]
			for _, c := range cols {
				cell := b.Cols[c].Cell(i)
				h.scratch = appendKeyCell(h.scratch, &cell)
			}
			return maphash.Bytes(keySeed, h.scratch), 0, nil, h.scratch
		}
		cells[j] = bits
		tags |= uint64(tag) << j
	}
	return hashWords(cells, tags), tags, cells, nil
}

// hashWords is a word key's hash: a seeded multiply-fold mixer over its cells
// and tags. Its low bits are as well mixed as its high ones, since tables
// place keys by them.
func hashWords(cells []uint64, tags uint64) uint64 {
	h := wordSeed ^ tags
	for _, w := range cells {
		hi, lo := bits.Mul64(w^wordSeed, h^0xe7037ed1a0b428db)
		h = hi ^ lo
	}
	return h
}
