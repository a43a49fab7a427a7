//go:build race

package bench

// The race runtime allocates on its own, so allocation baselines are only
// checked without it.
func init() { raceBuild = true }
