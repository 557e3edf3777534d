//go:build race

package rt

// raceBuild says the race detector is on: sync.Pool then drops a share
// of what it is handed, so allocation guards read high.
const raceBuild = true
