// Package proto is a miniature of rpcv/internal/proto with every
// message kind fully wired: kind constant, kindOf case, append case
// and read case. protocomplete must stay silent here.
package proto

import "fmt"

type Message interface {
	Kind() string
}

const (
	kindInvalid = iota
	kindPing
	kindPong
)

type Ping struct{ Seq uint64 }

func (*Ping) Kind() string { return "ping" }

type Pong struct{ Seq uint64 }

func (*Pong) Kind() string { return "pong" }

func kindOf(m Message) byte {
	switch m.(type) {
	case *Ping:
		return kindPing
	case *Pong:
		return kindPong
	default:
		return kindInvalid
	}
}

func appendMessageBody(buf []byte, m Message) []byte {
	switch v := m.(type) {
	case *Ping:
		return append(buf, byte(v.Seq))
	case *Pong:
		return append(buf, byte(v.Seq))
	}
	return buf
}

func readMessageBody(kind byte, buf []byte) (Message, error) {
	switch kind {
	case kindPing:
		return &Ping{Seq: uint64(buf[0])}, nil
	case kindPong:
		return &Pong{Seq: uint64(buf[0])}, nil
	}
	return nil, fmt.Errorf("unknown kind %d", kind)
}
