//go:build !race

// Package race tells tests whether the race detector is on, as the standard
// library's internal/race does. Allocation pins (testing.AllocsPerRun) skip
// themselves under it: the detector makes sync.Pool drop a share of what is
// put into it, so warm-path allocation counts are not the program's.
package race

// Enabled reports whether the build runs under the race detector.
const Enabled = false
