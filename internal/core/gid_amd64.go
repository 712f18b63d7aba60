package upcxx

import "unsafe"

const haveGetg = true

// getg returns the calling goroutine's runtime descriptor g, which the
// runtime keeps in thread-local storage (gid_amd64.s).
func getg() unsafe.Pointer
