//go:build !race

package rt

// raceBuild: see race_on_test.go.
const raceBuild = false
