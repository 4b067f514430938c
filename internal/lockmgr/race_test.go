//go:build race

package lockmgr

// Allocation counts under the race detector are not the program's.
func init() { raceBuild = true }
