package main

import (
	"crypto/sha256"
	"fmt"
	"hash/maphash"
	"math/rand"

	"efdedup/internal/chunk"
	"efdedup/internal/cluster"
	"efdedup/internal/model"
	"efdedup/internal/netem"
	"efdedup/internal/workload"
)

// task is one stream a client submits: dataset file (src, idx) ingested
// by node under name. Several tasks may share a file (loopback-cdc
// re-ingests the same images under fresh names).
type task struct {
	node     int
	name     string
	src, idx int
}

// spec describes one workload: its testbed, its inputs and how much of
// them one run processes at scale 1.
type spec struct {
	name string
	why  string

	sites    []string // site of node i
	rings    [][]int
	gamma    int
	edgeLink netem.Link // zero: unshaped
	wanLink  netem.Link
	durable  bool // kv nodes keep a WAL (and snapshots) under -dir

	chunker func() chunk.Chunker
	// fixedSize is the chunk size when the chunker is a fixed one: the
	// oracle then slices inputs itself instead of asking the chunker.
	fixedSize int

	dataset func(seed int64) workload.Dataset
	// tasks lays out warm-up and measured streams for n measured
	// streams, in submission order.
	tasks func(n int, rng *rand.Rand) (warm, measured []task)

	streams  int // measured streams at scale 1
	restores int // of which are restored, at scale 1
}

func fixed(size int) func() chunk.Chunker {
	return func() chunk.Chunker {
		c, err := chunk.NewFixedChunker(size)
		if err != nil {
			panic(err) // constant sizes below
		}
		return c
	}
}

func siteNames(perNode ...int) []string {
	out := make([]string, len(perNode))
	for i, s := range perNode {
		out[i] = fmt.Sprintf("s%d", s)
	}
	return out
}

// poolSystem is the chunk-pool model of the paper: every source draws a
// chunk from pool k with probability probs[k], else a never-repeating one.
func poolSystem(nodes int, sizes, probs []float64) *model.System {
	sys := &model.System{PoolSizes: sizes, T: 1}
	for i := 0; i < nodes; i++ {
		sys.Sources = append(sys.Sources, model.Source{ID: i, Rate: 1, Probs: probs})
	}
	return sys
}

// roundRobin lays out n streams as successive files of each node in
// turn, the nodes shuffled within each round so no node always leads.
func roundRobin(nodes, firstIdx, n int, rng *rand.Rand) []task {
	out := make([]task, 0, n)
	for idx := firstIdx; len(out) < n; idx++ {
		for _, node := range rng.Perm(nodes) {
			if len(out) == n {
				break
			}
			out = append(out, task{node: node, name: fmt.Sprintf("n%d/f%06d", node, idx), src: node, idx: idx})
		}
	}
	return out
}

var specs = []*spec{
	{
		name:  "edge-backup",
		why:   "paper testbed: 6 nodes in 2 rings over 0.85 ms edge and 12.2 ms WAN links; round trips and WAN bytes dominate, CPU does not",
		sites: siteNames(0, 0, 1, 1, 2, 2),
		rings: [][]int{{0, 2, 4}, {1, 3, 5}}, gamma: 2,
		edgeLink: cluster.DefaultEdgeLink, wanLink: cluster.DefaultWANLink,
		chunker: fixed(4096), fixedSize: 4096,
		dataset: func(seed int64) workload.Dataset {
			// 1 MiB images; node i runs OS family i%2, so each ring
			// holds one family.
			return &workload.VMImageDataset{Nodes: 6, OSFamilies: 2, BaseBlocks: 192, AppPool: 512,
				AppBlocks: 48, InstanceBlocks: 16, BlockSize: 4096, MutateFrac: 0.03, Seed: seed}
		},
		tasks: func(n int, rng *rand.Rand) ([]task, []task) {
			return roundRobin(6, 0, 6, rng), roundRobin(6, 1, n, rng)
		},
		streams: 300, restores: 300,
	},
	{
		name:  "loopback-cdc",
		why:   "CPU-bound duplicate path: gear scan, SHA-256, scheduler, index hits, manifest; no uploads, no shaped links",
		sites: siteNames(0, 1),
		// gamma 1: with both nodes replicating every key all lookups
		// would be local and the kv wire path would carry nothing.
		rings: [][]int{{0, 1}}, gamma: 1,
		chunker: func() chunk.Chunker { return chunk.NewDefaultGearChunker() },
		dataset: func(seed int64) workload.Dataset {
			// 32 MiB images in 64 KiB blocks, so CDC re-synchronises
			// inside every block.
			return &workload.VMImageDataset{Nodes: 4, OSFamilies: 2, BaseBlocks: 384, AppPool: 512,
				AppBlocks: 96, InstanceBlocks: 32, BlockSize: 64 << 10, MutateFrac: 0.03, Seed: seed}
		},
		tasks: func(n int, rng *rand.Rand) (warm, measured []task) {
			for round := 0; len(measured) < n; round++ {
				for _, img := range rng.Perm(4) {
					t := task{node: img % 2, name: fmt.Sprintf("img%d/r%04d", img, round), src: img}
					if round == 0 {
						warm = append(warm, t)
					} else if len(measured) < n {
						measured = append(measured, t)
					}
				}
			}
			return warm, measured
		},
		streams: 480, restores: 160,
	},
	{
		name:  "smallfiles-iot",
		why:   "many 64 KiB sensor files: per-stream fixed cost (admission, pipeline start, 3-4 RPCs, manifest) dominates, not bytes",
		sites: siteNames(0, 1, 2, 3),
		rings: [][]int{{0, 1, 2, 3}}, gamma: 2,
		chunker: fixed(2048), fixedSize: 2048,
		dataset: func(seed int64) workload.Dataset {
			return &workload.PoolDataset{System: poolSystem(4, []float64{2000, 20000}, []float64{0.55, 0.40}),
				ChunkSize: 2048, ChunksPerFile: 32, Seed: seed}
		},
		tasks: func(n int, rng *rand.Rand) ([]task, []task) {
			warm := (n/9 + 3) / 4 // a tenth of all streams, in whole rounds
			return roundRobin(4, 0, warm*4, rng), roundRobin(4, warm, n, rng)
		},
		streams: 24000, restores: 256,
	},
	{
		name:  "durable-fresh",
		why:   "write-heavy opposite of loopback-cdc: 85% unique chunks, every lookup misses, every chunk is uploaded and logged in the kv WAL",
		sites: siteNames(0, 1, 2, 3),
		rings: [][]int{{0, 1}, {2, 3}}, gamma: 2,
		durable: true,
		chunker: fixed(8192), fixedSize: 8192,
		dataset: func(seed int64) workload.Dataset {
			return &workload.PoolDataset{System: poolSystem(4, []float64{4000}, []float64{0.15}),
				ChunkSize: 8192, ChunksPerFile: 256, Seed: seed}
		},
		tasks: func(n int, rng *rand.Rand) ([]task, []task) {
			return roundRobin(4, 0, 16, rng), roundRobin(4, 4, n, rng)
		},
		streams: 400, restores: 100,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// inputs are a run's streams, materialised and hashed before any timing.
type inputs struct {
	warm, measured []task
	restore        []int // indices into measured, in restore order
	data           map[[2]int][]byte
	sums           map[[2]int][sha256.Size]byte
	// refChunks/refBytes is what a correct store must hold after warm
	// and measured are ingested: the distinct chunks of the benchmark's
	// own chunking of the inputs.
	refChunks, refBytes int64
	totalBytes          int64 // warm + measured
}

func (in *inputs) bytesOf(t task) []byte { return in.data[[2]int{t.src, t.idx}] }

// scaled applies the run's scale to a scale-1 count.
func scaled(n int, scale float64, floor int) int {
	return max(int(float64(n)*scale+0.5), floor)
}

// prepare generates the streams of one run from the seed. prefix < 1
// keeps only that leading share of the measured streams (traced runs).
func prepare(sp *spec, seed int64, scale, prefix float64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	n := scaled(sp.streams, scale, 4)
	in := &inputs{data: make(map[[2]int][]byte), sums: make(map[[2]int][sha256.Size]byte)}
	in.warm, in.measured = sp.tasks(n, rng)
	restores := min(scaled(sp.restores, scale, 2), n)
	if prefix < 1 {
		in.measured = in.measured[:max(int(float64(n)*prefix), 2)]
		restores = max(int(float64(restores)*prefix), 2)
	}
	in.restore = rng.Perm(len(in.measured))[:min(restores, len(in.measured))]

	ds := sp.dataset(seed)
	chunker := sp.chunker()
	ref := make(map[uint64]struct{})
	hseed := maphash.MakeSeed()
	for _, list := range [][]task{in.warm, in.measured} {
		for _, t := range list {
			key := [2]int{t.src, t.idx}
			data, ok := in.data[key]
			if !ok {
				data = ds.File(t.src, t.idx)
				in.data[key] = data
				in.sums[key] = sha256.Sum256(data)
				err := refSplit(sp, chunker, data, func(piece []byte) {
					h := maphash.Bytes(hseed, piece)
					if _, dup := ref[h]; !dup {
						ref[h] = struct{}{}
						in.refChunks++
						in.refBytes += int64(len(piece))
					}
				})
				if err != nil {
					return nil, fmt.Errorf("reference chunking of %s: %w", t.name, err)
				}
			}
			in.totalBytes += int64(len(data))
		}
	}
	return in, nil
}

// refSplit is the oracle's chunking. Fixed-size workloads are sliced
// here, independently of the product; content-defined boundaries can
// only come from the chunker itself. Distinct pieces are told apart by
// a 64-bit hash: at ~10^6 pieces a collision has probability ~10^-7,
// and would show as a one-chunk mismatch, not pass silently.
func refSplit(sp *spec, chunker chunk.Chunker, data []byte, emit func([]byte)) error {
	if sp.fixedSize > 0 {
		for off := 0; off < len(data); off += sp.fixedSize {
			emit(data[off:min(off+sp.fixedSize, len(data))])
		}
		return nil
	}
	chunks, err := chunk.SplitBytes(chunker, data)
	for _, c := range chunks {
		emit(c.Data)
	}
	return err
}
