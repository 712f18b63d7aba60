package upcxx

import "unsafe"

// uintptrOf returns the address of the first byte of b. Isolated here so
// unsafe appears only in this file and the goroutine-id read (gid*.go).
func uintptrOf(b []byte) uintptr {
	return uintptr(unsafe.Pointer(&b[0]))
}
