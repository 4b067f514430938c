//go:build race

package cluster_test

// Under the race detector sync.Pool drops a quarter of what it is given,
// so an allocation count is not the program's.
func init() { raceBuild = true }
