//go:build !race

package proto

// raceBuild: see race_on_test.go.
const raceBuild = false
