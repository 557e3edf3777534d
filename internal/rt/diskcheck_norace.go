//go:build !race

package rt

import "rpcv/internal/store"

// checkStore is the identity outside race-detector builds (see
// diskcheck_race.go).
func checkStore(s store.Store) store.Store { return s }
