//go:build race

package race

// Enabled reports whether the build runs under the race detector.
const Enabled = true
