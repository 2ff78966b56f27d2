package main

import "lib"

// dead is called by nothing, but a caller module's own identifiers are not
// reported.
func dead() {}

func main() { _ = lib.Far() }
