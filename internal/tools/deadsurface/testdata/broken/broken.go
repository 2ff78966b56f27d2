// Package broken does not type-check.
package broken

var N int = "not an int"
