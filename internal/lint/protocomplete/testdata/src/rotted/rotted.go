// Package rotted is protocomplete's rot regression: Steal was added to
// the encoder but never grew a readMessageBody decode arm, and Orphan
// was declared with no wiring at all — the exact drift the analyzer
// exists to catch.
package rotted

import "fmt"

type Message interface {
	Kind() string
}

const (
	kindInvalid = iota
	kindPing
	kindSteal
)

type Ping struct{ Seq uint64 }

func (*Ping) Kind() string { return "ping" }

// Steal made it into kindOf and the encoder, but whoever added it
// forgot the decode arm.
type Steal struct{ Victim string } // want `message Steal missing from readMessageBody`

func (*Steal) Kind() string { return "steal" }

// Orphan implements Message but was never wired anywhere.
type Orphan struct{} // want `message Orphan has no wire kind constant kindOrphan` `message Orphan missing from the kindOf type switch` `message Orphan missing from appendMessageBody` `message Orphan missing from readMessageBody`

func (*Orphan) Kind() string { return "orphan" }

func kindOf(m Message) byte {
	switch m.(type) {
	case *Ping:
		return kindPing
	case *Steal:
		return kindSteal
	default:
		return kindInvalid
	}
}

func appendMessageBody(buf []byte, m Message) []byte {
	switch v := m.(type) {
	case *Ping:
		return append(buf, byte(v.Seq))
	case *Steal:
		return append(buf, v.Victim...)
	}
	return buf
}

func readMessageBody(kind byte, buf []byte) (Message, error) {
	switch kind {
	case kindPing:
		return &Ping{Seq: uint64(buf[0])}, nil
	}
	return nil, fmt.Errorf("unknown kind %d", kind)
}
