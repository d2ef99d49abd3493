//go:build !amd64 && !arm64

package des

// prefetchLine is the portable fallback of the prefetch hint: nothing. The
// run loop's look-ahead stays in place and costs its peek.
func prefetchLine(addr uintptr) {}
