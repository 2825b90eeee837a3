//go:build go1.23

package core

import "iter"

// pull turns a strand body into a runtime coroutine: next runs it until its
// next yield, stop unwinds it for good.  Kept in its own file because
// iter.Pull needs Go 1.23 while the module still declares go 1.22.
func pull(body func(yield func(yieldMsg) bool)) (next func() (yieldMsg, bool), stop func()) {
	return iter.Pull(body)
}
