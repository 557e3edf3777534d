//go:build race

package sim

import (
	"rpcv/internal/node"
	"rpcv/internal/store"
)

// checkDisk routes a simulated node's disk through store.CheckedDisk in
// race-detector builds. The simulator passes messages between nodes by
// pointer, so a payload one node stored is the very slice another node
// still holds: this is where a breach of the node.Disk ownership
// contract is likeliest, and it panics where it is noticed.
func checkDisk(d *MemDisk) node.Disk {
	return store.CheckedDisk(d, func(msg string) { panic(msg) })
}
