//go:build race

package names

// Allocation counts under the race detector are not the program's.
func init() { raceBuild = true }
