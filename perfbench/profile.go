package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

const (
	repoPkg  = "github.com/ipa-grid/ipa/internal/"
	benchPkg = "main."
)

// cpuModules are the internal packages a session runs through, in the
// order the report lists them. Samples in any other internal package
// count as "other"; samples with no repository frame as "runtime";
// samples whose innermost known frame is this benchmark as "bench".
var cpuModules = []string{
	"aida", "analysis", "catalog", "codeloader", "core", "dataset", "engine",
	"events", "gram", "gridftp", "gsi", "locator", "merge", "obs", "registry",
	"relay", "rmi", "scheduler", "script", "session", "shard", "splitter",
	"storage", "wsrf",
}

// cpuShareKeys lists every cpu_share bucket.
func cpuShareKeys() []string {
	return append(append([]string{}, cpuModules...), "runtime", "bench", "other")
}

// cpuShares reads a CPU profile with `go tool pprof -traces` and gives
// each sample to the innermost internal/<module> frame on its stack.
// The shares sum to 1.
func cpuShares(profile string) (map[string]float64, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd := exec.Command(goBin, "tool", "pprof", "-traces", profile)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	return parseTraces(out)
}

// parseTraces attributes the samples of pprof -traces output. Each trace
// block starts with its sample value followed by the leaf frame, then
// one caller per line, and ends at a dashed separator line.
func parseTraces(out []byte) (map[string]float64, error) {
	known := map[string]bool{}
	for _, m := range cpuModules {
		known[m] = true
	}
	shares := map[string]float64{}
	var total, value float64
	bucket := ""
	flush := func() {
		if value > 0 {
			if bucket == "" {
				bucket = "runtime"
			}
			shares[bucket] += value
			total += value
		}
		value, bucket = 0, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inTraces := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		if !inTraces || strings.TrimSpace(line) == "" {
			continue
		}
		frame := strings.TrimSpace(line)
		if value == 0 {
			// First line of a block: "<value>   <leaf frame>".
			fields := strings.Fields(line)
			d, err := parseSampleValue(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof trace line %q: %w", line, err)
			}
			value = d
			frame = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), fields[0]))
		}
		if bucket == "" {
			bucket = frameModule(frame, known)
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu profile holds no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// frameModule names the bucket a frame belongs to, or "" when the frame
// is outside the repository (runtime, standard library).
func frameModule(frame string, known map[string]bool) string {
	if strings.HasPrefix(frame, benchPkg) {
		return "bench"
	}
	rest, ok := strings.CutPrefix(frame, repoPkg)
	if !ok {
		return ""
	}
	mod, _, _ := strings.Cut(rest, ".")
	mod, _, _ = strings.Cut(mod, "/")
	if known[mod] {
		return mod
	}
	return "other"
}

// parseSampleValue reads a pprof sample value such as "10ms" or "1.20s".
func parseSampleValue(s string) (float64, error) {
	if d, err := time.ParseDuration(s); err == nil {
		return float64(d), nil
	}
	return strconv.ParseFloat(s, 64)
}
