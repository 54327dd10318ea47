package core

import (
	"reflect"
	"testing"
)

// TestLayoutPins pins the two layouts the protocol's costs are sized
// around. Message is exactly 80 bytes: Fence filled the word freed by
// narrowing Phase to int32, and the sim's event arenas and the
// transport's fixed-size wire record are sized around it. Node is at most
// 360 bytes: what a keyed instance costs in its host's slab (DESIGN.md
// §9), paid by every instantiated (position, instance) pair. A failure
// names the field that crosses the pin.
func TestLayoutPins(t *testing.T) {
	for _, pin := range []struct {
		typ   reflect.Type
		bytes uintptr
		exact bool // false: an upper bound
	}{
		{reflect.TypeOf(Message{}), 80, true},
		{reflect.TypeOf(Node{}), 360, false},
	} {
		switch size := pin.typ.Size(); {
		case size > pin.bytes:
			t.Errorf("%s is %d bytes, want at most %d; field %s pushes past the pin",
				pin.typ, size, pin.bytes, crossing(pin.typ, pin.bytes))
		case pin.exact && size < pin.bytes:
			t.Errorf("%s is %d bytes, want exactly %d", pin.typ, size, pin.bytes)
		}
	}
}

// crossing names the first field of struct type typ whose storage ends
// past limit bytes, or the last field when only trailing padding does.
func crossing(typ reflect.Type, limit uintptr) string {
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Offset+f.Type.Size() > limit {
			return f.Name
		}
	}
	return typ.Field(typ.NumField() - 1).Name
}
