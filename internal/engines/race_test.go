//go:build race

package engines

// The race runtime allocates on its own (and randomly empties sync.Pools),
// so byte-exact allocation bounds are only checked without it.
func init() { raceBuild = true }
