// Command cmd is a main package: its exports are never findings.
package main

import "user"

// Exported has no caller, but package main is out of scope.
func Exported() {}

func main() { _ = user.Sum() }
