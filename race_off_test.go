//go:build !race

package rpcv

// raceBuild: see race_on_test.go.
const raceBuild = false
