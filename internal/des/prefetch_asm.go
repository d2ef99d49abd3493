//go:build amd64 || arm64

package des

// prefetchLine hints the CPU to load the cache line holding addr into every
// cache level (PREFETCHT0 on amd64, PRFM PLDL1KEEP on arm64). It is a hint
// and nothing else: it reads no value, cannot fault on any address (nil and
// one-past-the-end included — which is why it takes a uintptr and callers may
// compute addr by plain integer arithmetic), and has no effect a program can
// observe other than time.
func prefetchLine(addr uintptr)
