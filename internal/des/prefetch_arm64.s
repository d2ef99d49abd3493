#include "textflag.h"

// func prefetchLine(addr uintptr)
TEXT ·prefetchLine(SB), NOSPLIT, $0-8
	MOVD addr+0(FP), R0
	PRFM (R0), PLDL1KEEP
	RET
