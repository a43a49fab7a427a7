package relation

import "hash/maphash"

// Key is KeyAt for a row: the key of r's projection onto cols, the reference
// the vector form is checked against (TestWordKeysQuick, FuzzKeyEquality).
func (h *KeyHasher) Key(r Row, cols []int) (hash, tags uint64, cells []uint64, b []byte) {
	if cap(h.cells) < len(cols) {
		h.cells = make([]uint64, len(cols))
	}
	cells = h.cells[:len(cols)]
	for i, c := range cols {
		v := &r[c]
		tag, bits := keyInt, uint64(v.I)
		switch v.Kind {
		case KindInt:
		case KindFloat:
			tag, bits = floatKey(v.F)
		default:
			tag, bits = keyCell(v)
		}
		if tag == keyString || i == MaxWordCells {
			hash, b = h.HashKey(r, cols)
			return hash, 0, nil, b
		}
		cells[i] = bits
		tags |= uint64(tag) << i
	}
	return hashWords(cells, tags), tags, cells, nil
}

// HashKey returns the hash of r's projection onto cols plus its AppendKey
// encoding — a byte key's hash. The returned slice aliases the hasher's
// scratch buffer and is only valid until the next HashKey or Key call.
func (h *KeyHasher) HashKey(r Row, cols []int) (uint64, []byte) {
	h.scratch = r.AppendKey(h.scratch[:0], cols)
	return maphash.Bytes(keySeed, h.scratch), h.scratch
}
