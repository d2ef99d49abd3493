package obs

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// PeakRSSBytes returns the process's peak resident set size (the VmHWM
// high-water mark from /proc/self/status), or 0 where the proc filesystem
// is unavailable. It is the benchmark's peak_rss_mb and the peakRSS-MB the
// root scale benchmarks report: a monotone per-process maximum, so in a run
// measuring ascending topology sizes each reading is dominated by the
// largest cell completed so far.
func PeakRSSBytes() uint64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
