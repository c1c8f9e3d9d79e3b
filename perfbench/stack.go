package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"maxembed/internal/embedding"
	"maxembed/internal/hypergraph"
	"maxembed/internal/layout"
	"maxembed/internal/placement"
	"maxembed/internal/serving"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
)

const pageSize = 4096

// stack is a serving stack assembled from the layers' public
// constructors, in the order maxembed.Open runs them.
type stack struct {
	lay *layout.Layout
	src serving.PageSource
	be  ssd.Backend
	eng *serving.Engine
	// steps is the wall time of each set-up step, by metric name.
	steps map[string]time.Duration
}

// buildStack runs the offline steps on the history and returns the
// engine: hypergraph, placement, the page store, the shard files (when
// fileDir is set; otherwise a simulated P5800X array of the workload's
// width) and the serving engine. The despread pass, which none of the
// deployments enables, is timed in its diversity-only mode (the one
// tiered arrays run at build) on the built layout, for reference, when
// timeDespread is set.
func (b *bench) buildStack(in *inputs, fileDir string, timeDespread bool) (*stack, error) {
	st := &stack{steps: map[string]time.Duration{}}
	step := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		st.steps[name] = time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	var g *hypergraph.Graph
	err := step("setup.hypergraph_s", func() (err error) {
		g, err = hypergraph.FromQueries(in.items, in.history)
		return err
	})
	if err == nil {
		err = step("setup.placement_s", func() (err error) {
			st.lay, err = placement.Build(placement.StrategyMaxEmbed, g, placement.Options{
				Capacity:         embedding.PageCapacity(pageSize, embDim),
				ReplicationRatio: b.wl.ratio,
				Seed:             dbSeed,
				Shards:           b.wl.devices,
			})
			return err
		})
	}
	if err == nil {
		err = step("setup.despread_s", func() error {
			if !timeDespread || b.wl.devices < 2 {
				return nil
			}
			_, _, err := placement.Despread(st.lay, nil, b.wl.devices, nil)
			return err
		})
	}
	if err == nil {
		err = step("setup.store_s", func() error {
			syn, err := embedding.NewSynthesizer(embDim, dbSeed)
			if err != nil {
				return err
			}
			if b.wl.devices > 1 {
				st.src, err = store.BuildSharded(st.lay, syn, pageSize, b.wl.devices)
			} else {
				st.src, err = store.Build(st.lay, syn, pageSize)
			}
			return err
		})
	}
	if err == nil {
		err = step("setup.files_s", func() (err error) {
			if fileDir == "" {
				st.be, err = simBackend(b.wl.devices)
				return err
			}
			st.be, err = writeShardFiles(fileDir, st.src, b.wl.devices)
			return err
		})
	}
	if err == nil {
		err = step("setup.engine_s", func() (err error) {
			st.eng, err = serving.New(b.engineConfig(st.lay, st.src, st.be))
			return err
		})
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// total is the stack's set-up time.
func (st *stack) total() time.Duration {
	var t time.Duration
	for _, d := range st.steps {
		t += d
	}
	return t
}

// close releases the file backend's descriptors and executors.
func (st *stack) close() error {
	if fb, ok := st.be.(*ssd.FileBackend); ok {
		return fb.Close()
	}
	return nil
}

// engineConfig is the serving configuration maxembed.Open gives the
// workload's deployment.
func (b *bench) engineConfig(lay *layout.Layout, src serving.PageSource, be ssd.Backend) serving.Config {
	cfg := serving.Config{
		Layout:       lay,
		CacheEntries: int(b.wl.cacheRatio * float64(lay.NumKeys)),
		IndexLimit:   10,
		Pipeline:     true,
		Store:        src,
	}
	if dev, ok := be.(*ssd.Device); ok {
		cfg.Device = dev
	} else {
		cfg.Backend = be
	}
	return cfg
}

// simBackend is the simulated P5800X device (one) or array (several).
func simBackend(devices int) (ssd.Backend, error) {
	if devices > 1 {
		return ssd.NewArray(ssd.P5800X, devices)
	}
	return ssd.NewDevice(ssd.P5800X)
}

// writeShardFiles writes one file per shard of src under dir and opens
// the file backend over them. The files are opened for buffered reads:
// the benchmark may write only inside its checkout, whose filesystem is
// often a shared virtual disk, and O_DIRECT reads there put that disk's
// noise into every number. Page-cache reads keep the whole real I/O path
// (executor submit and completion, CRC verification, zero-copy views)
// while the bytes come from memory, as on a tmpfs.
func writeShardFiles(dir string, src serving.PageSource, shards int) (*ssd.FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	shard := func(i int) *store.Store {
		if sh, ok := src.(*store.Sharded); ok {
			return sh.Shard(i)
		}
		return src.(*store.Store)
	}
	var files []*store.FileStore
	closeAll := func() {
		for _, f := range files {
			f.Close()
		}
	}
	for i := 0; i < shards; i++ {
		path := filepath.Join(dir, fmt.Sprintf("shard%03d.bin", i))
		f, err := os.Create(path)
		if err != nil {
			closeAll()
			return nil, err
		}
		_, err = shard(i).WriteTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		var fs *store.FileStore
		if err == nil {
			fs, err = store.OpenFile(path)
		}
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		files = append(files, fs)
	}
	fb, err := ssd.NewFileBackend(files, ssd.FileBackendConfig{})
	if err != nil {
		closeAll()
		return nil, err
	}
	return fb, nil
}
