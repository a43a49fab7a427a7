//go:build race

package exec

// The race runtime allocates on its own, so allocation bounds are only
// checked without it.
func init() { raceBuild = true }
