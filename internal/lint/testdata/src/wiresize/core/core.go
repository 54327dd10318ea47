// Package core mirrors the import-path tail of the real wire package,
// so the wiresize analyzer applies the same 80-byte Message pin and
// 360-byte Node pin to this fixture — here each grown one field past it.
package core

type Message struct { // want "core.Message is 88 bytes, want exactly 80; field Extra pushes past the pin"
	Pad   [10]uint64
	Extra uint8
}

type Node struct { // want "core.Node is 368 bytes, want at most 360; field scratch pushes past the pin"
	state   [45]uint64
	scratch *[8]uint64
}
