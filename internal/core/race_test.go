//go:build race

package core

// The race runtime allocates on its own, so malloc counts are only compared
// without it.
func init() { raceBuild = true }
