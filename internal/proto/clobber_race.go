//go:build race

package proto

import (
	"bytes"
	"reflect"
	"sync"
)

// In race builds what goes back to proto's pools is poisoned first, so
// that a reader who kept it past its give-back — against the contract of
// ReleasePayload or ReleaseMessage — reads garbage, and reads it at once,
// rather than another call's bytes or elements once the memory is
// reused: the idea of the Go runtime's GODEBUG=clobberfree=1. The race
// detector then also sees that reader beside the next decode's writes. A
// struct given back while it is poisoned still — twice with no take
// between, as a message sent twice or sent and also received is —
// panics instead.

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
// numbers made of poisonByte, bools true, byte slices poisonBytes. A
// list stays at length 0 with every element of its kept array poisoned,
// so a keeper of the list reads poison too; a list with no array gets
// its type's noList. No field keeps a value a message may hold, so a
// poisoned struct is told from every message (poisoned).
func clobberStruct(m any) {
	v := reflect.ValueOf(m).Elem()
	for i := range v.NumField() {
		f := v.Field(i)
		if !isList(f) {
			poison(f)
			continue
		}
		if f.Cap() == 0 {
			f.Set(noList(f.Type()))
			continue
		}
		all := f.Slice(0, f.Cap())
		for j := range all.Len() {
			poison(all.Index(j))
		}
	}
}

// unpoison readies a struct taken from a pool: its kept arrays zeroed,
// so that a list the taker leaves empty is not taken for poison, and a
// list that had no array nil again, as it is outside race builds.
func unpoison(m any) {
	v := reflect.ValueOf(m).Elem()
	for i := range v.NumField() {
		f := v.Field(i)
		switch {
		case !isList(f):
		case f.Cap() > 0 && f.Pointer() == noList(f.Type()).Pointer():
			f.SetZero()
		default:
			f.Slice(0, f.Cap()).Clear()
		}
	}
}

// noLists holds, per list type, the array of one poisoned element that
// a given-back list with no array of its own points to (at length 0):
// the mark a poisoned struct needs in a field that has no value to
// poison, and that unpoison takes back off.
var noLists sync.Map // reflect.Type -> reflect.Value

func noList(typ reflect.Type) reflect.Value {
	if l, ok := noLists.Load(typ); ok {
		return l.(reflect.Value)
	}
	l := reflect.MakeSlice(typ, 1, 1)
	poison(l.Index(0))
	stored, _ := noLists.LoadOrStore(typ, l.Slice(0, 0))
	return stored.(reflect.Value)
}

// poisoned reports whether the struct m points to is poisoned.
func poisoned(m any) bool {
	v := reflect.ValueOf(m).Elem()
	for i := range v.NumField() {
		f := v.Field(i)
		if !isList(f) {
			if !isPoison(f) {
				return false
			}
			continue
		}
		all := f.Slice(0, f.Cap())
		if f.Len() != 0 || all.Len() == 0 || !isPoison(all) {
			return false
		}
	}
	return true
}

// isList reports whether v is a message's list: a slice of other than
// bytes.
func isList(v reflect.Value) bool {
	return v.Kind() == reflect.Slice && v.Type().Elem().Kind() != reflect.Uint8
}

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
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
			poison(v.Index(0))
		}
	case reflect.Struct:
		for i := range v.NumField() {
			poison(v.Field(i))
		}
	}
}

// isPoison reports whether v holds what poison sets: for a list, at
// least one element, each poisoned.
func isPoison(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return bytes.Equal(v.Bytes(), poisonBytes)
		}
		for i := range v.Len() {
			if !isPoison(v.Index(i)) {
				return false
			}
		}
		return v.Len() > 0
	case reflect.Struct:
		for i := range v.NumField() {
			if !isPoison(v.Field(i)) {
				return false
			}
		}
		return true
	}
	p := reflect.New(v.Type()).Elem()
	poison(p)
	return v.Equal(p)
}
