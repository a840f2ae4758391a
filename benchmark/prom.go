package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
)

// promSample is one scrape of the daemon's /metrics: series text (name and
// labels exactly as exposed) to value.
type promSample map[string]float64

// parseProm reads Prometheus text exposition. Comment lines and lines it
// cannot parse are skipped: the benchmark asserts on the series it needs
// and reports one that is missing.
func parseProm(data []byte) promSample {
	out := make(promSample)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
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
		out[line[:sp]] = v
	}
	return out
}

// sum adds every series of a family, whatever its labels: sum("x_total")
// covers x_total, x_total{a="1"} and x_total{a="2"}.
func (s promSample) sum(family string) float64 {
	total := 0.0
	for k, v := range s {
		if inFamily(k, family) {
			total += v
		}
	}
	return total
}

// max is sum's counterpart for gauges.
func (s promSample) max(family string) float64 {
	best := 0.0
	for k, v := range s {
		if inFamily(k, family) && v > best {
			best = v
		}
	}
	return best
}

func inFamily(series, family string) bool {
	return series == family || (strings.HasPrefix(series, family) && series[len(family)] == '{')
}
