//go:build !race

package sim

import "rpcv/internal/node"

// checkDisk is the identity outside race-detector builds (see
// diskcheck_race.go).
func checkDisk(d *MemDisk) node.Disk { return d }
