//go:build race

package relation

// The race runtime allocates on its own, so allocation baselines are only
// checked without it.
func init() { raceBuild = true }
