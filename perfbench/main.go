// Command perfbench is the MaxEmbed benchmark. It builds the system from
// a seeded trace through its public API, drives one workload, checks
// every served vector, and prints one JSON result line:
//
//	perfbench --workload http-criteo --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it replays the same inputs through each layer's entry points
// with spans recorded around them and carries the per-layer metrics.
// Normally run through run.sh, which builds the server binary first.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"maxembed/internal/workload"
)

// workloadSpec is one traffic mix and the deployment it runs against.
type workloadSpec struct {
	name       string
	profile    workload.Profile
	scale      float64
	devices    int
	ratio      float64 // replication ratio r
	cacheRatio float64 // DRAM cache as a fraction of keys
	file       bool    // real I/O over shard files, closed loop in process
	binary     bool    // MXE1 frames instead of JSON
	refresh    bool    // era switch plus POST /v1/refresh under load
	rate       float64 // open-loop lookups/s (HTTP workloads)
}

var workloads = []workloadSpec{
	{name: "http-criteo", profile: workload.Criteo, scale: 0.1, devices: 1, ratio: 0.2, cacheRatio: 0.1, rate: 400},
	{name: "file-ifashion", profile: workload.AlibabaIFashion, scale: 0.3, devices: 4, ratio: 0.2, file: true},
	{name: "refresh-m2", profile: workload.AmazonM2, scale: 1, devices: 4, ratio: 0.2, cacheRatio: 0.1, binary: true, refresh: true, rate: 500},
}

// Deployment constants shared by every workload: the DB's embedding
// dimension and placement/synthesizer seed (the server's defaults).
const (
	embDim      = 64
	dbSeed      = 1
	setupReps   = 5
	runLimit    = 150 * time.Second
	vclockConns = 8
)

// bench is one benchmark run.
type bench struct {
	out       string // scratch directory for this run
	wl        workloadSpec
	seed      int64
	dur       time.Duration
	trace     bool
	conns     int
	serverBin string

	chk       *checker
	tr        *tracer
	m         metricSet
	attempted int64
	failed    int64
	meta      runMeta
	// trafficWall is the wall time of all HTTP traffic phases.
	trafficWall time.Duration
}

// errMismatch marks a run whose served outputs failed the check.
var errMismatch = errors.New("output check failed")

// result is the line the benchmark prints last.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured traffic per run, in seconds")
	trace := flag.Int("trace", 0, "1 replays the inputs through each layer with spans and reports per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "scratch directory for builds, shard files and results")
	flag.Parse()

	var wl *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	b := &bench{
		wl:        *wl,
		seed:      *seed,
		dur:       time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		conns:     runtime.NumCPU(),
		serverBin: filepath.Join(*out, "maxembed-server"),
		m:         metricSet{},
	}
	b.out = filepath.Join(*out, fmt.Sprintf("run-%s-%d-%d", wl.name, *seed, os.Getpid()))
	// Past the limit, traffic and server start-up give up, so a hung
	// server fails the run instead of stalling it.
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	res, err := b.run(ctx)
	cancel()
	if rmErr := os.RemoveAll(b.out); err == nil && rmErr != nil {
		err = rmErr
	}
	if errors.Is(err, errMismatch) {
		// A wrong output fails the run: report it without numbers.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		line, _ := json.Marshal(result{Attempted: b.attempted, Failed: b.failed, Metrics: metricSet{}})
		fmt.Println(string(line))
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b.record(*out, res)
	fmt.Println(string(mustJSON(res)))
}

// run sets up, drives and checks one workload.
func (b *bench) run(ctx context.Context) (*result, error) {
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return nil, err
	}
	if b.trace {
		b.tr = newTracer()
	}
	var err error
	if b.wl.file {
		err = b.runFile(ctx)
	} else {
		err = b.runHTTP(ctx)
	}
	if err != nil {
		return nil, err
	}
	if bad, first := b.chk.result(); bad > 0 {
		return nil, fmt.Errorf("%w on %d lookups; first: %v", errMismatch, bad, first)
	}
	if b.tr != nil {
		spans := b.tr.all()
		if err := writeSpans(filepath.Join(filepath.Dir(b.out), "spans-"+b.wl.name+".jsonl"), spans); err != nil {
			return nil, err
		}
	}
	if b.attempted < 1 {
		return nil, errors.New("no lookups attempted")
	}
	names := e2eMetrics
	if b.trace {
		names = layerMetrics
	}
	m, err := b.m.only(names)
	if err != nil {
		return nil, err
	}
	return &result{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// record writes the run's metadata and result next to the previous run
// of the same workload, warning when the two runs' metadata differ.
func (b *bench) record(dir string, res *result) {
	path := filepath.Join(dir, "last-"+b.wl.name+".json")
	if prev, err := os.ReadFile(path); err == nil {
		var old struct{ Meta runMeta }
		if json.Unmarshal(prev, &old) == nil {
			for _, d := range b.meta.diff(old.Meta) {
				fmt.Fprintf(os.Stderr, "perfbench: warning: %s differs from the previous %s run: %s\n", d, b.wl.name, "results are not comparable")
			}
		}
	}
	blob, err := json.MarshalIndent(struct {
		Meta   runMeta
		Result *result
	}{b.meta, res}, "", "  ")
	if err == nil {
		err = os.WriteFile(path, blob, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: recording result:", err)
	}
	fmt.Println(string(mustJSON(b.meta)))
}

func mustJSON(v any) []byte {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and numbers always encode
	}
	return blob
}
