package main

import (
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/ipa-grid/ipa/internal/obs"
)

// exposition is one reading of the program's metric exposition (the
// /metrics text), keyed by series: name plus rendered labels.
type exposition map[string]float64

func readExposition() exposition {
	var buf bytes.Buffer
	obs.WritePrometheus(&buf) // a bytes.Buffer write cannot fail
	m := exposition{}
	for _, line := range strings.Split(buf.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// since returns the per-series increase from before to e.
func (e exposition) since(before exposition) exposition {
	d := exposition{}
	for k, v := range e {
		d[k] = v - before[k]
	}
	return d
}

// sum adds every series of a family whose labels contain match.
func (e exposition) sum(family, match string) float64 {
	var s float64
	for k, v := range e {
		if (k == family || strings.HasPrefix(k, family+"{")) && strings.Contains(k, match) {
			s += v
		}
	}
	return s
}

// quantile estimates the q-quantile of a histogram family, summed over
// all its series, by linear interpolation inside the bucket holding it
// (the Prometheus histogram_quantile rule). 0 when the family is empty.
func (e exposition) quantile(family string, q float64) float64 {
	cum := map[float64]float64{}
	prefix := family + "_bucket{"
	for k, v := range e {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		le := k[i+4 : len(k)-2]
		bound := math.Inf(1)
		if le != "+Inf" {
			var err error
			if bound, err = strconv.ParseFloat(le, 64); err != nil {
				continue
			}
		}
		cum[bound] += v
	}
	bounds := make([]float64, 0, len(cum))
	for b := range cum {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] == 0 {
		return 0
	}
	rank := q * cum[bounds[len(bounds)-1]]
	lo, below := 0.0, 0.0
	for _, b := range bounds {
		if cum[b] >= rank {
			if math.IsInf(b, 1) {
				return lo
			}
			return lo + (b-lo)*(rank-below)/(cum[b]-below)
		}
		lo, below = b, cum[b]
	}
	return lo
}
