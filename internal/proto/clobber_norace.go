//go:build !race

package proto

// Outside race builds what goes back to a pool is left as it is: a
// payload as its holder left it, a message struct zeroed (clobber_race.go).
func clobber([]byte)    {}
func clobberStruct(any) {}
