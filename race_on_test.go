//go:build race

package rpcv

// raceBuild says the race detector is on: sync.Pool then drops a share
// of what it is handed, so buffers regrow and allocation guards read
// high.
const raceBuild = true
