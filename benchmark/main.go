// Command benchmark is the repository's one benchmark: it generates data
// from a seed, loads it through the public enrichdb API, serves it with an
// in-process wire server on a loopback port and drives it with closed-loop
// wire clients, one named workload at a time. See README.md.
//
//	go run ./benchmark                        every workload, 3 interleaved reps, one report
//	go run ./benchmark -trace                 ... plus the traced run and layer replay of each
//	go run ./benchmark -aa                    two full sets of runs compared against the bounds
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	                                          one workload; the last line of output is one JSON result
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bounds are the end-to-end metrics and the share of the parent's median by
// which each may get worse; BENCHMARK.json repeats them.
var bounds = []struct {
	name  string
	bound float64
}{
	{"op_p50_ms", 0.25},
	{"ops_per_s", 0.25},
	{"ttq_p50_ms", 0.25},
	{"setup_s", 0.25},
}

// smokeLimits fixes the op count of a smoke-scale pass; a smoke pool holds 16
// hours per client, enough for the warm-up op, the pass and the sampled pass.
var smokeLimits = limits{opsPerClient: 2}

const (
	oneReps = 7 // reps of a single-workload run
	allReps = 3 // rounds of a run over every workload
)

// machine is recorded in every output.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Clients    int    `json:"clients"`
	Seed       int64  `json:"seed"`
}

func thisMachine(seed int64) machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: "unknown", Clients: clientCount(), Seed: seed}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// workloadReport is one workload's end-to-end result over its reps.
type workloadReport struct {
	Name      string            `json:"name"`
	Metrics   map[string]metric `json:"metrics"`
	Spread    map[string]string `json:"rep_min_max"`
	Samples   []int             `json:"samples_per_rep"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []string          `json:"check_failures"`
	Exhausted bool              `json:"pool_exhausted,omitempty"`
	Layers    map[string]metric `json:"per_layer,omitempty"`
}

// rep is one set-up of a workload and one timed pass over it. A run makes
// several and reports their median: between two set-ups of the same data a
// workload's latency differs by up to a tenth (hash seeds and heap placement
// differ), far more than between two passes over one set-up.
type rep struct {
	setup   float64 // seconds
	pass    passResult
	checks  []string
	results []opResult // every op of the instance, for the family cross-checks
	layers  map[string]metric
}

func runRep(s spec, seed int64, lim limits, traced bool) (rep, error) {
	runtime.GC() // the previous rep's heap is not this set-up's to collect
	in, err := prepare(s, seed)
	if err != nil {
		return rep{}, err
	}
	defer in.close()
	r := rep{setup: in.setup.Seconds(), pass: in.pass(lim, false)}
	if traced {
		r.layers, err = tracedRun(in, lim, r.pass)
	}
	r.checks, r.results = in.verify(), in.results
	return r, err
}

// summarize folds a workload's reps into its report: per metric the median
// rep, and the min-max over the reps.
func summarize(name string, reps []rep) workloadReport {
	wr := workloadReport{Name: name, Metrics: map[string]metric{}, Spread: map[string]string{}, Checks: []string{}}
	cols := map[string][]float64{}
	tailName := ""
	for _, r := range reps {
		st := r.pass.stats()
		wr.Samples = append(wr.Samples, st.ops)
		wr.Attempted += st.ops + st.failed
		wr.Failed += st.failed
		wr.Exhausted = wr.Exhausted || r.pass.exhausted
		wr.Checks = append(wr.Checks, r.checks...)
		if r.layers != nil {
			wr.Layers = r.layers
		}
		cols["op_p50_ms"] = append(cols["op_p50_ms"], st.p50)
		cols["ops_per_s"] = append(cols["ops_per_s"], st.opsPerS)
		cols["ttq_p50_ms"] = append(cols["ttq_p50_ms"], st.ttq50)
		cols["setup_s"] = append(cols["setup_s"], r.setup)
		cols["enrich_execs_per_op"] = append(cols["enrich_execs_per_op"], st.execsPerOp)
		// The tail's name depends on the sample count; keep the least precise.
		if tailName == "" || st.tailName > tailName {
			tailName = st.tailName
		}
		cols["tail"] = append(cols["tail"], st.tail)
	}
	units := map[string]string{"op_p50_ms": "ms", "ops_per_s": "1/s", "ttq_p50_ms": "ms", "setup_s": "s", "enrich_execs_per_op": "count", "tail": "ms"}
	for name, vs := range cols {
		out := name
		if name == "tail" {
			out = tailName
		}
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		wr.Metrics[out] = metric{Value: median(vs), Unit: units[name]}
		wr.Spread[out] = fmt.Sprintf("%.4g..%.4g", sorted[0], sorted[len(sorted)-1])
	}
	wr.Metrics["failed_ratio"] = metric{Value: float64(wr.Failed) / float64(max(wr.Attempted, 1)), Unit: "ratio"}
	return wr
}

func (wr workloadReport) print() {
	fmt.Printf("%s: %d ops attempted, %d succeeded, %d failed; samples per rep %v\n",
		wr.Name, wr.Attempted, wr.Attempted-wr.Failed, wr.Failed, wr.Samples)
	names := make([]string, 0, len(wr.Metrics))
	for n := range wr.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("  %-22s %12.4f %-6s", n, wr.Metrics[n].Value, wr.Metrics[n].Unit)
		if sp, ok := wr.Spread[n]; ok {
			line += "  reps " + sp
		}
		for _, b := range bounds {
			if b.name == n {
				line += fmt.Sprintf("  bound %.0f%%", b.bound*100)
			}
		}
		if strings.HasPrefix(n, "op_p9") || n == "op_max_ms" {
			line += "  (diagnostic, not gated)"
		}
		fmt.Println(line)
	}
	if wr.Exhausted {
		fmt.Println("  note: a client's pool of fresh hours ran out before the window ended")
	}
	for _, c := range wr.Checks {
		fmt.Println("  CHECK FAILED:", c)
	}
	for _, n := range layerNames(wr.Layers) {
		fmt.Printf("    %-34s %14.4f %s\n", n, wr.Layers[n].Value, wr.Layers[n].Unit)
	}
}

// runOne is the single-workload mode the driver calls: oneReps reps whose
// windows together last `seconds` (with -trace 1, one rep: an untraced
// window, a sampled window and the layer replay), the checks, and one JSON
// line.
func runOne(s spec, seed int64, seconds float64, traced bool) int {
	fmt.Printf("machine: %+v\n", thisMachine(seed))
	n := oneReps
	if traced {
		n = 1
	}
	lim := limits{window: time.Duration(seconds / oneReps * float64(time.Second))}
	var reps []rep
	for i := 0; i < n; i++ {
		r, err := runRep(s, seed, lim, traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		reps = append(reps, r)
	}
	wr := summarize(s.name, reps)
	wr.print()
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(wr.Checks) == 0 && wr.Failed == 0, wr.Attempted, wr.Failed, wr.Layers}
	if !traced {
		out.Metrics = map[string]metric{}
		for _, b := range bounds {
			out.Metrics[b.name] = wr.Metrics[b.name]
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// report is the full run's output, also written to report.json.
type report struct {
	Machine   machine          `json:"machine"`
	Claim     *string          `json:"claim"` // this benchmark claims no gain
	Workloads []workloadReport `json:"workloads"`
}

// runAll runs allReps rounds; a round sets each workload up, runs one pass
// over it and checks it, so the reps of one workload are interleaved with
// the others' and a slow stretch of the machine does not land on one of
// them. The last round adds the traced run when asked. Workloads of one
// family are then compared op by op.
func runAll(seed int64, seconds float64, traced bool, scale func(spec) spec, lim limits) (report, bool) {
	out := report{Machine: thisMachine(seed)}
	if lim.opsPerClient == 0 {
		lim.window = time.Duration(seconds / allReps * float64(time.Second))
	}
	reps := map[string][]rep{}
	for round := 0; round < allReps; round++ {
		for _, s := range specs {
			r, err := runRep(scale(s), seed, lim, traced && round == allReps-1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return out, false
			}
			reps[s.name] = append(reps[s.name], r)
		}
	}
	ok := true
	for _, s := range specs {
		wr := summarize(s.name, reps[s.name])
		for _, twin := range map[string][]string{"warm_plain": {"warm_loose", "warm_tight"}, "cold_loose": {"cold_tight"}}[s.name] {
			wr.Checks = append(wr.Checks, crossCheck(s.name, reps[s.name][0].results, twin, reps[twin][0].results)...)
		}
		wr.print()
		ok = ok && len(wr.Checks) == 0 && wr.Failed == 0
		out.Workloads = append(out.Workloads, wr)
	}
	return out, ok
}

// outDir is where span files and reports go (-out): by default next to this
// package's files when run from the repository root, as the driver does.
var outDir = "benchmark/out"

func writeOut(name string, data []byte) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), data, 0o644)
}

// compareAA prints, per gated (metric, workload), the relative difference
// between two sets of runs of the same binary against the metric's bound.
func compareAA(a, b report) bool {
	ok := true
	fmt.Printf("\n%-16s %-20s %12s %12s %8s %7s\n", "workload", "metric", "run A", "run B", "diff", "bound")
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		for _, bd := range bounds {
			va, vb := wa.Metrics[bd.name].Value, wb.Metrics[bd.name].Value
			diff := 0.0
			if m := (va + vb) / 2; m > 0 {
				diff = (vb - va) / m
			}
			verdict := ""
			switch {
			case bd.name == "setup_s":
				// Three set-ups of a few tenths of a second per set do not
				// repeat within the bound; the single-workload mode gates the
				// median of seven.
				verdict = "  (diagnostic here)"
			case diff > bd.bound || diff < -bd.bound:
				verdict, ok = "  DISAGREE", false
			}
			fmt.Printf("%-16s %-20s %12.4f %12.4f %+7.1f%% %6.0f%%%s\n", wa.Name, bd.name, va, vb, diff*100, bd.bound*100, verdict)
		}
		// Counts must repeat exactly; progressive's depend on measured costs.
		if wa.Name != "progressive_ttq" {
			va, vb := wa.Metrics["enrich_execs_per_op"].Value, wb.Metrics["enrich_execs_per_op"].Value
			verdict := ""
			if va != vb {
				verdict, ok = "  DISAGREE", false
			}
			fmt.Printf("%-16s %-20s %12.4f %12.4f %8s %7s%s\n", wa.Name, "enrich_execs_per_op", va, vb, "", "exact", verdict)
		}
	}
	return ok
}

func main() {
	// `-trace` alone asks for the traced run; the driver passes `--trace 0|1`.
	args := os.Args[1:]
	for i, a := range args {
		if (a == "-trace" || a == "--trace") && (i+1 == len(args) || (args[i+1] != "0" && args[i+1] != "1")) {
			args[i] = "-trace=1"
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	workload := fs.String("workload", "", "run one workload and print one JSON result line (default: all eight)")
	seed := fs.Int64("seed", 1, "seed of the generated data and op lists")
	seconds := fs.Float64("seconds", 6, "measured seconds per workload, split over its reps")
	trace := fs.Int("trace", 0, "1 adds the traced run: sampled pass, layer replay, benchmark/out/trace-<workload>.jsonl")
	aa := fs.Bool("aa", false, "run everything twice and compare the two sets against the bounds")
	fs.StringVar(&outDir, "out", outDir, "directory for span files and report.json")
	fs.Parse(args)

	if *workload != "" {
		s, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		os.Exit(runOne(s, *seed, *seconds, *trace == 1))
	}
	full := func(s spec) spec { return s }
	rep, ok := runAll(*seed, *seconds, *trace == 1, full, limits{})
	if *aa {
		fmt.Println("\n--- second set ---")
		rep2, ok2 := runAll(*seed, *seconds, false, full, limits{})
		ok = ok && ok2 && compareAA(rep, rep2)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = writeOut("report.json", append(data, '\n'))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Printf("\nreport: %s/report.json\n", outDir)
	if !ok {
		fmt.Println("FAILED: see CHECK FAILED / DISAGREE lines above")
		os.Exit(1)
	}
	fmt.Println("all checks passed")
}
