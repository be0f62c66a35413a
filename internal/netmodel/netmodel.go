// Package netmodel models the network substrate of the paper's experiments:
// the French Grid'5000 testbed, nine sites interconnected by the RENATER
// research backbone, each site a Giga-Ethernet cluster. The model supplies
// one-way message latencies (site matrix + jitter), transmission time from a
// 1 Gb/s access link, a per-message protocol-stack service time (the JXTA-C
// software overhead), and optional loss injection for failure experiments.
//
// Latency values are calibrated, not measured: published RENATER RTTs from
// the Grid'5000 era (a few ms between western sites, ~10 ms for the longest
// diagonals) divided by two, with the stack service time chosen so that the
// paper's configuration-A discovery plateau lands near its reported ≈12 ms.
// The model stands in for the testbed, which a reproduction cannot run on;
// the calibration above is the whole of the substitution.
package netmodel

import (
	"fmt"
	"math/rand"
	"time"
)

// Site enumerates the nine Grid'5000 sites used in the paper (§4).
type Site int

// The nine sites, alphabetical as listed in the paper.
const (
	Bordeaux Site = iota
	Grenoble
	Lille
	Lyon
	Nancy
	Orsay
	Rennes
	Sophia
	Toulouse
	numSites
)

// NumSites is the number of modeled sites.
const NumSites = int(numSites)

var siteNames = [...]string{
	"bordeaux", "grenoble", "lille", "lyon", "nancy",
	"orsay", "rennes", "sophia", "toulouse",
}

// String returns the lower-case site name.
func (s Site) String() string {
	if s < 0 || int(s) >= NumSites {
		return fmt.Sprintf("site(%d)", int(s))
	}
	return siteNames[s]
}

// ParseSite resolves a site name.
func ParseSite(name string) (Site, error) {
	for i, n := range siteNames {
		if n == name {
			return Site(i), nil
		}
	}
	return 0, fmt.Errorf("netmodel: unknown site %q", name)
}

// Model describes the simulated network.
type Model struct {
	// IntraSite is the one-way latency between two nodes of the same
	// cluster (Giga-Ethernet switch hop).
	IntraSite time.Duration
	// InterSite is the one-way latency matrix between sites. Symmetric;
	// the diagonal is ignored (IntraSite applies).
	InterSite [NumSites][NumSites]time.Duration
	// Jitter is the relative uniform jitter applied to each latency sample
	// (0.1 = ±10%).
	Jitter float64
	// BandwidthBps is the access-link rate used for transmission delay
	// (size*8/bandwidth). Zero disables the term.
	BandwidthBps int64
	// StackService is the per-message service time a receiving peer's
	// protocol stack consumes before the message is handed to the service
	// handler. Messages queue behind it (FIFO per receiving peer), which is
	// what makes heavily loaded rendezvous peers slow (§4.2 config B).
	StackService time.Duration
	// LossRate is the probability a message is silently dropped. Used by
	// failure-injection tests; zero for the paper's experiments.
	LossRate float64
}

// grid5000RTTms holds calibrated site-to-site RTTs in milliseconds,
// upper-triangular (i<j). Derived from RENATER topology: geographically
// close pairs a few ms, the long Lille–Toulouse / Rennes–Sophia diagonals
// near 20 ms RTT.
var grid5000RTTms = map[[2]Site]float64{
	{Bordeaux, Grenoble}: 11, {Bordeaux, Lille}: 13, {Bordeaux, Lyon}: 9,
	{Bordeaux, Nancy}: 14, {Bordeaux, Orsay}: 8, {Bordeaux, Rennes}: 8,
	{Bordeaux, Sophia}: 13, {Bordeaux, Toulouse}: 4,

	{Grenoble, Lille}: 12, {Grenoble, Lyon}: 3, {Grenoble, Nancy}: 10,
	{Grenoble, Orsay}: 9, {Grenoble, Rennes}: 13, {Grenoble, Sophia}: 7,
	{Grenoble, Toulouse}: 10,

	{Lille, Lyon}: 10, {Lille, Nancy}: 7, {Lille, Orsay}: 5,
	{Lille, Rennes}: 9, {Lille, Sophia}: 16, {Lille, Toulouse}: 17,

	{Lyon, Nancy}: 8, {Lyon, Orsay}: 7, {Lyon, Rennes}: 11,
	{Lyon, Sophia}: 5, {Lyon, Toulouse}: 8,

	{Nancy, Orsay}: 6, {Nancy, Rennes}: 11, {Nancy, Sophia}: 13,
	{Nancy, Toulouse}: 15,

	{Orsay, Rennes}: 5, {Orsay, Sophia}: 12, {Orsay, Toulouse}: 11,

	{Rennes, Sophia}: 17, {Rennes, Toulouse}: 12,

	{Sophia, Toulouse}: 9,
}

// rttCalibration scales the raw RTT table so that configuration A's
// measured discovery plateau lands at the paper's ≈12 ms (four messages,
// three of them inter-site). RENATER paths were shorter than great-circle
// estimates suggest; 0.7 was fit against the reproduced Figure 4 (right).
const rttCalibration = 0.7

// Grid5000 returns the calibrated nine-site model used by the paper's
// experiment reproductions.
func Grid5000() *Model {
	m := &Model{
		IntraSite:    100 * time.Microsecond,
		Jitter:       0.10,
		BandwidthBps: 1_000_000_000, // Giga Ethernet
		StackService: 400 * time.Microsecond,
	}
	for pair, rtt := range grid5000RTTms {
		oneWay := time.Duration(rtt / 2 * rttCalibration * float64(time.Millisecond))
		m.InterSite[pair[0]][pair[1]] = oneWay
		m.InterSite[pair[1]][pair[0]] = oneWay
	}
	return m
}

// Uniform returns a degenerate single-latency model, handy for unit tests
// and for isolating protocol behaviour from topology.
func Uniform(latency time.Duration) *Model {
	m := &Model{IntraSite: latency, StackService: 0}
	for i := 0; i < NumSites; i++ {
		for j := 0; j < NumSites; j++ {
			if i != j {
				m.InterSite[i][j] = latency
			}
		}
	}
	return m
}

// BaseLatency returns the un-jittered one-way propagation latency between
// two sites.
func (m *Model) BaseLatency(a, b Site) time.Duration {
	if a == b {
		return m.IntraSite
	}
	return m.InterSite[a][b]
}

// SampleLatency draws the full one-way delay for a message of the given size
// between two sites: propagation (jittered) plus transmission.
func (m *Model) SampleLatency(a, b Site, size int, rng *rand.Rand) time.Duration {
	base := m.BaseLatency(a, b)
	d := base
	if m.Jitter > 0 && base > 0 {
		f := 1 + m.Jitter*(2*rng.Float64()-1)
		d = time.Duration(float64(base) * f)
	}
	if m.BandwidthBps > 0 && size > 0 {
		d += time.Duration(int64(size) * 8 * int64(time.Second) / m.BandwidthBps)
	}
	return d
}

// Drop reports whether a message should be lost, per the model's loss rate.
func (m *Model) Drop(rng *rand.Rand) bool {
	return m.LossRate > 0 && rng.Float64() < m.LossRate
}

// ShardLookahead derives the conservative-PDES window width for a
// site→shard assignment (assign[site] = shard): the minimum over all
// cross-shard site pairs of the worst-case jittered one-way propagation
// latency, minus one nanosecond guarding float rounding in SampleLatency.
// Any message between shards takes at least this long, so events created
// inside a window [T, T+W) for another shard always land at ≥ T+W —
// transmission delay and the FIFO clamp only push arrivals later. It
// returns 0 when some cross-shard pair has no positive latency (no safe
// window exists; the caller must co-locate those sites or stay serial).
func (m *Model) ShardLookahead(assign []int) time.Duration {
	la, found := time.Duration(0), false
	for i := 0; i < NumSites && i < len(assign); i++ {
		for j := 0; j < NumSites && j < len(assign); j++ {
			if i == j || assign[i] == assign[j] {
				continue
			}
			base := m.BaseLatency(Site(i), Site(j))
			if base <= 0 {
				return 0
			}
			floor := time.Duration(float64(base) * (1 - m.Jitter))
			if !found || floor < la {
				la, found = floor, true
			}
		}
	}
	if !found {
		return 0
	}
	if la -= 1; la <= 0 {
		return 0
	}
	return la
}

// SpreadSites assigns n nodes round-robin across all nine sites, the way the
// paper's deployments spread rendezvous peers over Grid'5000.
func SpreadSites(n int) []Site {
	sites := make([]Site, n)
	for i := range sites {
		sites[i] = Site(i % NumSites)
	}
	return sites
}
