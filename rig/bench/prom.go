package bench

import (
	"strconv"
	"strings"

	"mlds/internal/core"
)

// counters is a snapshot of the system's exported metrics: every series of
// the Prometheus exposition, summed per metric name (labels dropped), so a
// per-backend or per-language family reads as one total.
type counters map[string]float64

// readCounters scrapes the system's registry the way /metrics serves it.
func readCounters(sys *core.System) counters {
	var sb strings.Builder
	if err := sys.Metrics().WritePrometheus(&sb); err != nil {
		return counters{}
	}
	out := counters{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}

// delta is after[name] - before[name].
func (after counters) delta(before counters, name string) float64 {
	return after[name] - before[name]
}
