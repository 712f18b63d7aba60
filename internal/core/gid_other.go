//go:build !amd64

package upcxx

import "unsafe"

// Without getg, curGID always parses runtime.Stack.
const haveGetg = false

func getg() unsafe.Pointer { return nil }
