// Package user calls the fixture's exports.
package user

import "api"

// Sum uses api the way product code does.
func Sum() int {
	var s api.Shape = api.T{}
	f := api.T{}.Used
	return api.Called() + s.Area() + f()
}
