//go:build race

package fs

// Allocation counts under the race detector are not the program's.
func init() { raceBuild = true }
