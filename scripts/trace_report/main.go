// Command trace_report summarizes a JSONL run trace produced by the
// engine's obs.Tracer (planartest -trace FILE, or congest.Config.Trace
// directly): it folds the phase_exit segment deltas into a per-phase
// table, lists checkpoint/merge/fast-forward activity, splits the wall
// time of the pooled barriers into compute, parallel merge and the
// engine loop's serial work per phase, and reports how much of the
// run's wall time the phase segments account for.
//
// Usage:
//
//	go run ./scripts/trace_report trace.jsonl
//	planartest -family grid -n 10000 -trace /tmp/t.jsonl && go run ./scripts/trace_report /tmp/t.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// event mirrors obs.Event (kept separate so the script stays a plain
// consumer of the documented JSONL schema, not of internal types).
type event struct {
	Event    string `json:"event"`
	AtNs     int64  `json:"at_ns"`
	Round    int64  `json:"round,omitempty"`
	Barrier  int64  `json:"barrier,omitempty"`
	Phase    string `json:"phase,omitempty"`
	WallNs   int64  `json:"wall_ns,omitempty"`
	Wakes    int64  `json:"wakes,omitempty"`
	Barriers int64  `json:"barriers,omitempty"`
	Messages int64  `json:"messages,omitempty"`
	Bits     int64  `json:"bits,omitempty"`
	Windows  int64  `json:"windows,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
	Merge    string `json:"merge,omitempty"`
	Shards   int64  `json:"shards,omitempty"`
	Compute  int64  `json:"compute_ns,omitempty"`
	MergeNs  int64  `json:"merge_ns,omitempty"`
	Serial   int64  `json:"serial_ns,omitempty"`
	Err      string `json:"err,omitempty"`
	N        int64  `json:"n,omitempty"`
	M        int64  `json:"m,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Workers  int64  `json:"workers,omitempty"`
}

// phaseAgg accumulates one phase's segments (a phase can be re-entered,
// e.g. across multiple runs appended to one file).
type phaseAgg struct {
	name     string
	first    int64 // at_ns of the first segment exit, for stable ordering
	segments int64
	wallNs   int64
	wakes    int64
	barriers int64
	messages int64
	bits     int64
	windows  int64
}

// poolAgg accumulates one phase's pooled-barrier wall split (merge
// events).
type poolAgg struct {
	name                     string
	first                    int64
	barriers                 int64
	compute, merge, serialNs int64
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: trace_report FILE.jsonl")
		os.Exit(2)
	}
	f, err := os.Open(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace_report:", err)
		os.Exit(1)
	}
	defer f.Close()

	phases := make(map[string]*phaseAgg)
	pools := make(map[string]*poolAgg)
	var (
		runs, checkpoints, ckptBytes, ffWindows, ffMessages int64
		mergeKinds                                          = map[string]int64{}
		totalWallNs, totalMessages, totalBits, lastRound    int64
		aborts                                              []string
		header                                              *event
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			fmt.Fprintf(os.Stderr, "trace_report: line %d: %v\n", line, err)
			os.Exit(1)
		}
		switch ev.Event {
		case "run_start":
			runs++
			if header == nil {
				h := ev
				header = &h
			}
		case "phase_exit":
			a := phases[ev.Phase]
			if a == nil {
				a = &phaseAgg{name: ev.Phase, first: ev.AtNs}
				phases[ev.Phase] = a
			}
			a.segments++
			a.wallNs += ev.WallNs
			a.wakes += ev.Wakes
			a.barriers += ev.Barriers
			a.messages += ev.Messages
			a.bits += ev.Bits
			a.windows += ev.Windows
		case "checkpoint":
			checkpoints++
			ckptBytes += ev.Bytes
		case "fast_forward":
			ffWindows += ev.Windows
			ffMessages += ev.Messages
		case "merge":
			mergeKinds[ev.Merge]++
			a := pools[ev.Phase]
			if a == nil {
				a = &poolAgg{name: ev.Phase, first: ev.AtNs}
				pools[ev.Phase] = a
			}
			a.barriers++
			a.compute += ev.Compute
			a.merge += ev.MergeNs
			a.serialNs += ev.Serial
		case "abort":
			aborts = append(aborts, ev.Err)
		case "run_end":
			totalWallNs += ev.WallNs
			totalMessages += ev.Messages
			totalBits += ev.Bits
			lastRound = ev.Round
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "trace_report:", err)
		os.Exit(1)
	}
	if header != nil {
		fmt.Printf("run: n=%d m=%d seed=%d workers=%d (%d run(s) in file)\n",
			header.N, header.M, header.Seed, header.Workers, runs)
	}

	ordered := make([]*phaseAgg, 0, len(phases))
	var sumNs, sumWakes, sumBarriers, sumMsgs, sumBits, sumWindows int64
	for _, a := range phases {
		ordered = append(ordered, a)
		sumNs += a.wallNs
		sumWakes += a.wakes
		sumBarriers += a.barriers
		sumMsgs += a.messages
		sumBits += a.bits
		sumWindows += a.windows
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].first < ordered[j].first })

	fmt.Printf("%-16s %12s %6s %12s %10s %12s %14s %8s\n",
		"phase", "wall", "%", "wakes", "barriers", "messages", "bits", "windows")
	for _, a := range ordered {
		pct := 0.0
		if totalWallNs > 0 {
			pct = 100 * float64(a.wallNs) / float64(totalWallNs)
		}
		fmt.Printf("%-16s %11.3fs %5.1f%% %12d %10d %12d %14d %8d\n",
			a.name, float64(a.wallNs)/1e9, pct, a.wakes, a.barriers, a.messages, a.bits, a.windows)
	}
	fmt.Printf("%-16s %11.3fs %5.1f%% %12d %10d %12d %14d %8d\n",
		"total", float64(sumNs)/1e9, pctOf(sumNs, totalWallNs), sumWakes, sumBarriers, sumMsgs, sumBits, sumWindows)

	fmt.Printf("\nrun wall: %.3fs over %d rounds; phase segments cover %.1f%% of it\n",
		float64(totalWallNs)/1e9, lastRound, pctOf(sumNs, totalWallNs))
	fmt.Printf("traffic: %d messages, %d bits (phase attribution: %d messages, %d bits)\n",
		totalMessages, totalBits, sumMsgs, sumBits)
	if ffWindows > 0 {
		fmt.Printf("fast-forward: %d windows charging %d messages\n", ffWindows, ffMessages)
	}
	if len(mergeKinds) > 0 {
		kinds := make([]string, 0, len(mergeKinds))
		for k := range mergeKinds {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Printf("barrier merges:")
		for _, k := range kinds {
			fmt.Printf(" %s=%d", k, mergeKinds[k])
		}
		fmt.Println()
	}
	if len(pools) > 0 {
		printPools(pools, totalWallNs)
	}
	if checkpoints > 0 {
		fmt.Printf("checkpoints: %d written, %d bytes total\n", checkpoints, ckptBytes)
	}
	for _, a := range aborts {
		fmt.Printf("abort: %s\n", a)
	}
}

// printPools prints the pooled barriers' wall split per phase. serial is
// the engine loop's own time between the parallel phases (merge tails,
// parking flushes, wake collection, single-worker barriers), so its total over
// the run wall is the engine's serial share.
func printPools(pools map[string]*poolAgg, runWallNs int64) {
	ordered := make([]*poolAgg, 0, len(pools))
	for _, a := range pools {
		ordered = append(ordered, a)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].first < ordered[j].first })
	fmt.Printf("\n%-16s %10s %12s %12s %12s\n", "pooled barriers", "barriers", "compute", "merge", "serial")
	var tot poolAgg
	for _, a := range ordered {
		fmt.Printf("%-16s %10d %11.3fs %11.3fs %11.3fs\n", a.name, a.barriers,
			float64(a.compute)/1e9, float64(a.merge)/1e9, float64(a.serialNs)/1e9)
		tot.barriers += a.barriers
		tot.compute += a.compute
		tot.merge += a.merge
		tot.serialNs += a.serialNs
	}
	fmt.Printf("%-16s %10d %11.3fs %11.3fs %11.3fs\n", "total", tot.barriers,
		float64(tot.compute)/1e9, float64(tot.merge)/1e9, float64(tot.serialNs)/1e9)
	fmt.Printf("engine serial share: %.1f%% of run wall\n", pctOf(tot.serialNs, runWallNs))
}

func pctOf(part, whole int64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
