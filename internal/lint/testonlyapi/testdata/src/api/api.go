// Package api is the fixture of the testonlyapi check: every export below
// is either called from another fixture package, out of scope, kept with a
// reason, or expected in the findings (TestFixture lists them).
package api

import "encoding/json"

// Called is called from package user.
func Called() int { return helper() }

// helper is unexported: never a finding.
func helper() int { return 1 }

// Uncalled has no caller: a finding.
func Uncalled() {}

// Kept has no caller and says why it stays.
//
//lint:api the fixture's allowlisted export
func Kept() {}

// Bare has no caller and a //lint:api without a reason, which allows
// nothing: a finding.
//
//lint:api
func Bare() {}

// Recursive calls only itself, which is no caller: a finding.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Shape is an interface package user calls through.
type Shape interface{ Area() int }

// T implements Shape and json.Marshaler.
type T struct{}

// Area implements Shape: out of scope.
func (T) Area() int { return 1 }

// MarshalJSON implements json.Marshaler: out of scope.
func (T) MarshalJSON() ([]byte, error) { return json.Marshal(1) }

// Used is called through a method value in package user.
func (T) Used() int { return 2 }

// Unused has no caller: a finding.
func (T) Unused() {}
