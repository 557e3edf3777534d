//go:build !race

package proto

// Outside race builds what goes back to a pool is left as it is: a
// payload as its holder left it, a message struct zeroed but for its
// lists' arrays, zeroed too (clobber_race.go). Nor is a struct given
// back twice caught.
func clobber([]byte)    {}
func clobberStruct(any) {}
func unpoison(any)      {}
func poisoned(any) bool { return false }
