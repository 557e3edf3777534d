//go:build race

package proto

import "reflect"

// In race builds what goes back to proto's pools is poisoned first, so
// that a reader who kept it past its give-back — against the contract of
// ReleasePayload or ReleaseMessage — reads garbage, and reads it at once,
// rather than another call's bytes once the memory is reused: the idea of
// the Go runtime's GODEBUG=clobberfree=1. The race detector then also
// sees that reader beside the next decode's writes.

// poisonByte fills a pooled payload.
const poisonByte = 0xDB

// poisonString names every node, user and service of a recycled struct.
const poisonString = "proto: recycled message"

// poisonBytes is every payload of a recycled struct. Its length is
// under BlobMin, so no give-back ever pools it.
var poisonBytes = []byte(poisonString)

// clobber fills b with poisonByte.
func clobber(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}

// clobberStruct poisons every field of the struct m points to: strings,
// numbers made of poisonByte, bools true, byte slices poisonBytes, other
// lists nil.
func clobberStruct(m any) { poison(reflect.ValueOf(m).Elem()) }

func poison(v reflect.Value) {
	if !v.CanSet() {
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(poisonString)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-0x2424242424242425) // 0xDBDB…DB
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(0xDBDBDBDBDBDBDBDB)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes(poisonBytes)
		} else {
			v.SetZero()
		}
	case reflect.Struct:
		for i := range v.NumField() {
			poison(v.Field(i))
		}
	}
}
