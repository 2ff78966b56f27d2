//go:build ignore

package lib

// Used would redeclare lib.go's Used: the scan must leave this file out.
func Used() int {
	onlyExcluded()
	return 0
}
