package main

import (
	"math/rand/v2"

	"shapesol/internal/grid"
	"shapesol/internal/job"
)

// splitmix is a 64-bit mixer: it spreads a (seed, stream, index) triple
// into an independent-looking job seed, so every input of a run derives
// from -seed alone.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed gives job seed number i of a stream; seeds stay below 2^62
// so they survive every JSON round trip exactly.
func deriveSeed(seed int64, stream, i uint64) int64 {
	return int64(splitmix(splitmix(uint64(seed)^stream<<48)^i) >> 2)
}

// Seed streams: each class of input draws from its own, so no two
// classes can share a job identity.
const (
	streamTrial uint64 = iota + 1
	streamHot
	streamPrefill
	streamSmall
	streamLarge
	streamResume
)

// deckEntry is one kind of trial in a batch round and how many of it a
// round runs. Entries are listed longest first: the runner hands trials
// out in order, so the long ones start early and the round ends evenly.
type deckEntry struct {
	job    job.Job
	copies int
}

// lShape is the four-cell L of the replication tests and benchmarks.
var lShape = grid.ShapeOf(grid.Pos{}, grid.Pos{X: 1}, grid.Pos{X: 2}, grid.Pos{Y: 1})

// constructDeck: one round is 19 geometric constructions on the sim
// engine. The median trial is a parallel-3d run and the p75 one a
// square-knowing-n run, each inside its class rather than on an edge.
var constructDeck = []deckEntry{
	{job.Job{Protocol: "count-line", Params: job.Params{N: 30}}, 1},
	{job.Job{Protocol: "universal", Params: job.Params{D: 10, Lang: "star"}}, 2},
	{job.Job{Protocol: "square-knowing-n", Params: job.Params{D: 6}}, 4},
	{job.Job{Protocol: "parallel-3d", Params: job.Params{D: 5, K: 3}}, 8},
	{job.Job{Protocol: "replication", Params: job.Params{Shape: lShape}}, 4},
}

// countDeck: one round gives each population engine about a third of
// the CPU time. The check run is seed-independent (180,880 configs).
var countDeck = []deckEntry{
	{job.Job{Protocol: "counting-upper-bound", Engine: job.EngineCheck, Params: job.Params{N: 600}}, 1},
	{job.Job{Protocol: "counting-upper-bound", Engine: job.EngineUrn, Params: job.Params{N: 1_000_000}}, 2},
	{job.Job{Protocol: "counting-upper-bound", Engine: job.EnginePop, Params: job.Params{N: 1000}}, 6},
}

// roundJobs lists the trials of batch round r, seeded from seed.
func roundJobs(deck []deckEntry, seed int64, r int) []job.Job {
	var out []job.Job
	for _, e := range deck {
		for c := 0; c < e.copies; c++ {
			j := e.job
			j.Seed = deriveSeed(seed, streamTrial, uint64(len(out))<<32|uint64(r))
			out = append(out, j)
		}
	}
	return out
}

// class is one request class of the serving mix.
type class int

const (
	// small: a unique counting job, so admit, journal, queue and engine
	// all run (the write path).
	small class = iota
	// hot: a repeat from the hot set, answered from the result cache.
	hot
	// resume: a snapshot upload; decode, restore and the rest of the run.
	resume
	// large: a unique n=10^5 counting job, the tail of the latency curve.
	large
)

func (c class) String() string {
	return [...]string{"small", "hot", "resume", "large"}[c]
}

// serveDeck holds one shuffled block of 20 requests. Dealing whole
// blocks fixes every class share exactly, so a run's mix does not vary
// with the seed. By latency the classes sort hot < small ≈ resume <
// large: p50 (rank 10 of 20) falls among the small jobs and p99 among
// the large ones.
var serveDeck = map[class]int{hot: 5, small: 12, resume: 2, large: 1}

const (
	hotSetSize = 32 // well under the daemons' 256-entry result cache
	smallN     = 1000
	largeN     = 100_000
	resumeN    = 1000
)

// request is one generated request of the serving mix. Index is the
// hot-set member of a hot request and the snapshot of a resume request.
type request struct {
	Class class
	Index int
	Job   job.Job // unset for resume
}

// mixGen deals one client's request sequence. The sequence depends only
// on (seed, client).
type mixGen struct {
	seed, client int64
	clients      int
	rng          *rand.Rand
	block        []class
	counts       map[class]int
}

func newMix(seed int64, client, clients int) *mixGen {
	return &mixGen{
		seed: seed, client: int64(client), clients: clients,
		rng:    rand.New(rand.NewPCG(uint64(seed), uint64(client)+1)),
		counts: map[class]int{},
	}
}

func countingJob(n int, seed int64) job.Job {
	return job.Job{Protocol: "counting-upper-bound", Engine: job.EngineUrn, Seed: seed, Params: job.Params{N: n}}
}

// hotJob is member i of the hot set, shared by every client.
func hotJob(seed int64, i int) job.Job {
	return countingJob(smallN, deriveSeed(seed, streamHot, uint64(i)))
}

func (m *mixGen) next() request {
	if len(m.block) == 0 {
		for _, c := range []class{small, hot, resume, large} {
			for k := 0; k < serveDeck[c]; k++ {
				m.block = append(m.block, c)
			}
		}
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	c := m.block[0]
	m.block = m.block[1:]
	i := m.counts[c]
	m.counts[c]++
	r := request{Class: c}
	// Unique classes interleave the clients' index spaces; the hot set
	// is walked round-robin from a per-client offset.
	u := uint64(i*m.clients) + uint64(m.client)
	switch c {
	case small:
		r.Job = countingJob(smallN, deriveSeed(m.seed, streamSmall, u))
	case large:
		r.Job = countingJob(largeN, deriveSeed(m.seed, streamLarge, u))
	case hot:
		r.Index = (i + int(m.client)*hotSetSize/m.clients) % hotSetSize
		r.Job = hotJob(m.seed, r.Index)
	case resume:
		r.Index = int(u)
	}
	return r
}
