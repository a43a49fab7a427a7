package relation

import "hash/maphash"

// keySeed is the process-wide seed for hashed row keys. All KeyHashers share
// it, so a hash table built by one goroutine can be probed by others (the
// parallel join kernel does exactly that). The seed is randomized per
// process by hash/maphash, which keeps bucket distribution unpredictable.
var keySeed = maphash.MakeSeed()

// KeyHasher computes 64-bit hashes of projected row keys with a reusable
// scratch buffer, so the per-row cost of keying a group-by or join probe is
// a hash over an encoding written into preallocated memory (Row.AppendKey:
// nine bytes per numeric cell, nothing rendered).
//
// A KeyHasher is not safe for concurrent use; parallel kernels create one
// per worker (they still hash compatibly because the seed is shared).
type KeyHasher struct {
	scratch []byte
}

// HashKey returns the hash of r's projection onto cols plus the encoded key
// bytes used for collision verification. The returned slice aliases the
// hasher's scratch buffer and is only valid until the next HashKey call;
// callers that retain it (hash-table inserts) must copy it first.
func (h *KeyHasher) HashKey(r Row, cols []int) (uint64, []byte) {
	h.scratch = r.AppendKey(h.scratch[:0], cols)
	return maphash.Bytes(keySeed, h.scratch), h.scratch
}
