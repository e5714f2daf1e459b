//go:build race

package sysload

func init() { raceBuild = true }
