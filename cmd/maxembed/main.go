// Command maxembed is the CLI for the MaxEmbed embedding store. It drives
// the full pipeline over synthetic traces:
//
//	maxembed gen      -profile Criteo -scale 0.1 -out trace.bin
//	maxembed inspect  -trace trace.bin
//	maxembed place    -trace trace.bin -strategy maxembed -ratio 0.2
//	maxembed serve    -trace trace.bin -strategy maxembed -ratio 0.2 -cache 0.1
//
// All timing is virtual (simulated NVMe device); see DESIGN.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"maxembed/internal/embedding"
	"maxembed/internal/hypergraph"
	"maxembed/internal/layout"
	"maxembed/internal/placement"
	"maxembed/internal/serving"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
	"maxembed/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "place":
		err = cmdPlace(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "maxembed: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "maxembed: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: maxembed <command> [flags]

commands:
  gen      generate a synthetic query trace for a dataset profile
  inspect  print statistics of a trace file
  place    run the offline phase (partition + replication) and report layout stats
  serve    run the online phase over a trace and report throughput/latency
  explain  walk one query through page selection step by step`)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	profile := fs.String("profile", "Criteo", "dataset profile name (see Table 3)")
	scale := fs.Float64("scale", 1.0, "profile scale multiplier")
	seed := fs.Int64("seed", 0, "generator seed (0 = profile default)")
	out := fs.String("out", "trace.bin", "output trace path")
	format := fs.String("format", "binary", "output format: binary or text (one query per line)")
	fs.Parse(args)

	p, ok := workload.ProfileByName(*profile)
	if !ok {
		return fmt.Errorf("unknown profile %q (have: %v)", *profile, profileNames())
	}
	if *scale != 1.0 {
		p = p.Scaled(*scale)
	}
	s := p.Seed
	if *seed != 0 {
		s = *seed
	}
	start := time.Now()
	tr, err := workload.GenerateSeeded(p, s)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	switch *format {
	case "binary":
		err = tr.Encode(f)
	case "text":
		err = tr.EncodeText(f)
	default:
		err = fmt.Errorf("unknown format %q (binary|text)", *format)
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d items, %d queries, mean length %.2f (%v)\n",
		*out, tr.NumItems, tr.NumQueries(), tr.MeanQueryLen(), time.Since(start).Round(time.Millisecond))
	return nil
}

func profileNames() []string {
	var names []string
	for _, p := range workload.Profiles() {
		names = append(names, p.Name)
	}
	return names
}

// loadTrace reads a trace in either format, sniffing the binary magic.
func loadTrace(path string) (*workload.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [6]byte
	n, _ := io.ReadFull(f, magic[:])
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if n == len(magic) && string(magic[:]) == "MXTR1\n" {
		return workload.Decode(f)
	}
	return workload.DecodeText(f, 0)
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	trace := fs.String("trace", "trace.bin", "trace path")
	fs.Parse(args)

	tr, err := loadTrace(*trace)
	if err != nil {
		return err
	}
	g, err := hypergraph.FromQueries(tr.NumItems, tr.Queries)
	if err != nil {
		return err
	}
	s := g.ComputeStats()
	fmt.Printf("items:           %d\n", tr.NumItems)
	fmt.Printf("queries:         %d\n", tr.NumQueries())
	fmt.Printf("mean query len:  %.2f (distinct %.2f)\n", tr.MeanQueryLen(), s.MeanEdgeSize)
	fmt.Printf("max query len:   %d distinct\n", s.MaxEdgeSize)
	fmt.Printf("max key degree:  %d\n", s.MaxDegree)
	return nil
}

// offline runs the shared gen→graph→placement pipeline of place and serve.
func offline(tracePath, strategy string, ratio float64, dim int, seed int64, historyFrac float64) (*layout.Layout, *workload.Trace, *workload.Trace, error) {
	tr, err := loadTrace(tracePath)
	if err != nil {
		return nil, nil, nil, err
	}
	history, eval := tr.Split(historyFrac)
	g, err := hypergraph.FromQueries(tr.NumItems, history.Queries)
	if err != nil {
		return nil, nil, nil, err
	}
	lay, err := placement.Build(placement.Strategy(strategy), g, placement.Options{
		Capacity:         embedding.PageCapacity(4096, dim),
		ReplicationRatio: ratio,
		Seed:             seed,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return lay, history, eval, nil
}

func cmdPlace(args []string) error {
	fs := flag.NewFlagSet("place", flag.ExitOnError)
	trace := fs.String("trace", "trace.bin", "trace path")
	strategy := fs.String("strategy", "maxembed", "placement strategy (vanilla|shp|rpp|fpr|maxembed)")
	ratio := fs.Float64("ratio", 0.1, "replication ratio r")
	dim := fs.Int("dim", 64, "embedding dimension")
	seed := fs.Int64("seed", 1, "placement seed")
	out := fs.String("out", "", "save the layout to this path (optional)")
	pages := fs.String("pages", "", "also materialize page images to this path (optional)")
	fs.Parse(args)

	start := time.Now()
	lay, _, _, err := offline(*trace, *strategy, *ratio, *dim, *seed, 0.5)
	if err != nil {
		return err
	}
	if err := lay.Validate(); err != nil {
		return err
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := lay.Encode(f); err != nil {
			return err
		}
		fmt.Printf("layout saved to %s\n", *out)
	}
	if *pages != "" {
		syn, err := embedding.NewSynthesizer(*dim, *seed)
		if err != nil {
			return err
		}
		st, err := store.Build(lay, syn, 4096)
		if err != nil {
			return err
		}
		f, err := os.Create(*pages)
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := st.WriteTo(f); err != nil {
			return err
		}
		fmt.Printf("page images saved to %s (%d pages)\n", *pages, st.NumPages())
	}
	s := lay.ComputeStats()
	fmt.Printf("strategy:          %s (r=%.0f%%)\n", *strategy, *ratio*100)
	fmt.Printf("placement time:    %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("keys:              %d\n", s.NumKeys)
	fmt.Printf("pages:             %d (capacity %d, mean fill %.1f)\n", s.NumPages, s.Capacity, s.MeanKeysPerPage)
	fmt.Printf("replica slots:     %d (ratio %.3f)\n", s.ReplicaSlots, s.ReplicationRatio)
	fmt.Printf("max copies of key: %d\n", s.MaxReplicaCount)
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	trace := fs.String("trace", "trace.bin", "trace path")
	strategy := fs.String("strategy", "maxembed", "placement strategy")
	ratio := fs.Float64("ratio", 0.1, "replication ratio r")
	dim := fs.Int("dim", 64, "embedding dimension")
	seed := fs.Int64("seed", 1, "placement seed")
	cacheRatio := fs.Float64("cache", 0.1, "DRAM cache size as a fraction of the table")
	workers := fs.Int("workers", 8, "closed-loop serving workers")
	device := fs.String("device", "P5800X", "SSD (P5800X|P4510|RAID0: a 2-device P5800X array)")
	indexLimit := fs.Int("k", 10, "index-shrinking limit (0 = unlimited)")
	noPipeline := fs.Bool("no-pipeline", false, "disable selection/IO pipelining")
	greedy := fs.Bool("greedy", false, "use classic greedy set-cover selection")
	layoutPath := fs.String("layout", "", "load a saved layout instead of recomputing placement")
	pagesPath := fs.String("pages", "", "serve vectors from saved page images (file-backed store)")
	fs.Parse(args)

	var lay *layout.Layout
	var history, eval *workload.Trace
	if *layoutPath != "" {
		f, err := os.Open(*layoutPath)
		if err != nil {
			return err
		}
		lay, err = layout.DecodeFrom(f)
		f.Close()
		if err != nil {
			return err
		}
		tr, err := loadTrace(*trace)
		if err != nil {
			return err
		}
		if tr.NumItems != lay.NumKeys {
			return fmt.Errorf("layout covers %d keys, trace has %d items", lay.NumKeys, tr.NumItems)
		}
		history, eval = tr.Split(0.5)
	} else {
		var err error
		lay, history, eval, err = offline(*trace, *strategy, *ratio, *dim, *seed, 0.5)
		if err != nil {
			return err
		}
	}
	var be ssd.Backend
	var err error
	switch *device {
	case "P5800X":
		be, err = ssd.NewDevice(ssd.P5800X)
	case "P4510":
		be, err = ssd.NewDevice(ssd.P4510)
	case "RAID0":
		// Two P5800X striped at page granularity, each with its own queues.
		be, err = ssd.NewArray(ssd.P5800X, 2)
	default:
		return fmt.Errorf("unknown device %q", *device)
	}
	if err != nil {
		return err
	}
	prof := be.Profile()
	cfg := serving.Config{
		Layout:       lay,
		Backend:      be,
		CacheEntries: int(*cacheRatio * float64(lay.NumKeys)),
		IndexLimit:   *indexLimit,
		Pipeline:     !*noPipeline,
		Greedy:       *greedy,
		VectorBytes:  embedding.BytesPerVector(*dim),
	}
	if *pagesPath != "" {
		fstore, err := store.OpenFile(*pagesPath)
		if err != nil {
			return err
		}
		defer fstore.Close()
		cfg.Store = fstore
	}
	eng, err := serving.New(cfg)
	if err != nil {
		return err
	}
	if err := eng.WarmCache(history.Queries); err != nil {
		return err
	}
	res, err := serving.Run(eng, eval.Queries, *workers)
	if err != nil {
		return err
	}
	fmt.Printf("device:              %s (%.1f GB/s, %v latency)\n", prof.Name, prof.Bandwidth/1e9, prof.ReadLatency)
	fmt.Printf("queries:             %d (%d workers)\n", res.Queries, *workers)
	fmt.Printf("throughput:          %.0f queries/s (virtual)\n", res.QPS)
	fmt.Printf("latency:             %v\n", res.Latency)
	fmt.Printf("page reads:          %d (%.2f per query, %.2f useful embeddings per read)\n",
		res.PagesRead, float64(res.PagesRead)/float64(res.Queries), res.MeanValidPerRead)
	fmt.Printf("effective bandwidth: %.1f MB/s (%.1f%% of device)\n", res.EffectiveBandwidth/1e6, res.Utilization*100)
	fmt.Printf("raw bandwidth:       %.1f MB/s\n", res.RawBandwidth/1e6)
	if eng.Cache() != nil {
		fmt.Printf("cache hit rate:      %.1f%%\n", eng.Cache().Stats().HitRate()*100)
	}
	return nil
}
