// Package paramserver implements the versioned parameter server at the
// center of the asynchronous actor-learner training split (the architecture
// Balsa and Neo use to keep hardware saturated during the paper's
// long-running training phases). A single learner publishes immutable policy
// snapshots; any number of actor goroutines fetch them lock-free — the read
// path is one atomic pointer load — and collect episodes against their
// latest-fetched snapshot while the learner keeps updating.
//
// Consistency model:
//
//   - Publish is linearizable: versions are assigned by a compare-and-swap
//     on the current snapshot, so they are dense (v, v+1, v+2, …), every
//     version carries exactly one network, and once a reader has observed
//     version v no reader can later observe an older version.
//   - Fetch is wait-free: Latest/Version are single atomic loads.
//   - Staleness is bounded per actor by a Client: an actor whose cached
//     snapshot lags the server by more than K versions refetches before the
//     next episode, so no episode is ever collected against a snapshot more
//     than K versions behind the server at episode start.
//
// Snapshots hand out *nn.Network values that must be treated as immutable;
// actors evaluate them with nn.Infer, which is safe for concurrent use on a
// shared network.
package paramserver

import (
	"sync/atomic"

	"handsfree/internal/nn"
)

// Snapshot is one immutable published policy version. Net must never be
// mutated or trained; evaluate it with nn.Infer (Forward caches layer state
// and is not safe for concurrent use on a shared network) or through
// Packed's shared-packing form.
type Snapshot struct {
	// Version counts publishes: the initial snapshot is version 0 and each
	// Publish increments it by exactly one.
	Version uint64
	// Net is the frozen policy at this version.
	Net *nn.Network
	// Updates is the learner's update counter when the snapshot was
	// published (metadata for staleness accounting and cache keys).
	Updates int

	// packed caches the shared packed-inference form, built lazily on first
	// Packed call. Tying the pack's lifetime to the snapshot is what makes
	// invalidation automatic: a Publish installs a new Snapshot, so a hot
	// policy swap can never serve stale panels.
	packed atomic.Pointer[nn.PackedNetwork]
}

// Packed returns the snapshot's shared packed-inference form, packing Net's
// weight panels once on first use (nil when the snapshot has no network).
// The pack is immutable and safe for any number of concurrent inference
// callers; every evaluation of this snapshot shares the same panels instead
// of re-reading the unpacked weights per call. A losing racer on first use
// packs redundantly and discards — packing is idempotent, so callers always
// observe one consistent pack.
func (s *Snapshot) Packed() *nn.PackedNetwork {
	if s.Net == nil {
		return nil
	}
	if p := s.packed.Load(); p != nil {
		return p
	}
	p := s.Net.Pack()
	if s.packed.CompareAndSwap(nil, p) {
		return p
	}
	return s.packed.Load()
}

// Server is the lock-free parameter server. The zero value is not usable;
// construct with New. Publish may be called from any goroutine (the usual
// deployment has a single learner); Latest and Version are wait-free and may
// be called from any number of actors.
type Server struct {
	cur atomic.Pointer[Snapshot]

	publishes atomic.Uint64
	fetches   atomic.Uint64

	// OnPublish, when non-nil, runs after each new snapshot becomes
	// visible, with the new version. Set it before any concurrent use; the
	// hook must be safe to call from the publishing goroutine. The service
	// lifecycle uses it to hot-swap the served policy.
	OnPublish func(version uint64)
}

// New builds a server whose initial snapshot (version 0) wraps initial.
// The caller hands over ownership: initial must not be mutated afterwards.
func New(initial *nn.Network) *Server {
	s := &Server{}
	s.cur.Store(&Snapshot{Version: 0, Net: initial})
	return s
}

// Publish makes net the latest snapshot and returns its version. The caller
// hands over ownership of net (publish a clone of a live training network,
// e.g. nn.Network.CloneForInference). updates is the learner's update
// counter, recorded as snapshot metadata.
func (s *Server) Publish(net *nn.Network, updates int) uint64 {
	for {
		old := s.cur.Load()
		snap := &Snapshot{Version: old.Version + 1, Net: net, Updates: updates}
		if s.cur.CompareAndSwap(old, snap) {
			s.publishes.Add(1)
			if s.OnPublish != nil {
				s.OnPublish(snap.Version)
			}
			return snap.Version
		}
	}
}

// Latest returns the current snapshot (one atomic load).
func (s *Server) Latest() *Snapshot {
	s.fetches.Add(1)
	return s.cur.Load()
}

// Version returns the current snapshot's version without counting a fetch.
func (s *Server) Version() uint64 {
	return s.cur.Load().Version
}

// Stats is a point-in-time snapshot of the server counters.
type Stats struct {
	// Publishes counts completed Publish calls (== current Version when a
	// single learner publishes).
	Publishes uint64
	// Fetches counts Latest calls across all actors.
	Fetches uint64
	// Version is the current snapshot version.
	Version uint64
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	return Stats{
		Publishes: s.publishes.Load(),
		Fetches:   s.fetches.Load(),
		Version:   s.cur.Load().Version,
	}
}

// DynBound is a staleness bound shared by many clients and adjustable while
// they run: the adaptive-staleness learner tightens it when it outpaces the
// actors and relaxes it when publishes are rare. Set/Get are atomic, so the
// learner adjusts it without synchronizing with the actor goroutines.
type DynBound struct {
	v atomic.Int64
}

// NewDynBound returns a shared bound initialized to k (clamped at 0).
func NewDynBound(k int) *DynBound {
	b := &DynBound{}
	b.Set(k)
	return b
}

// Set replaces the bound (values < 0 clamp to 0).
func (b *DynBound) Set(k int) {
	if k < 0 {
		k = 0
	}
	b.v.Store(int64(k))
}

// Get returns the current bound.
func (b *DynBound) Get() int { return int(b.v.Load()) }

// Client is one actor's staleness-bounded view of the server. It caches the
// most recently fetched snapshot and refetches only when the cache lags the
// server by more than the bound, keeping the per-episode cost at one atomic
// load in the common case. A Client belongs to a single actor goroutine and
// is not safe for concurrent use (the optional shared DynBound is).
type Client struct {
	srv   *Server
	bound uint64
	dyn   *DynBound
	snap  *Snapshot

	refetches uint64
	maxLag    uint64
}

// NewClient builds a staleness-bounded client. bound is K, the maximum
// number of versions the client's snapshot may lag the server at the moment
// Snapshot is called; bound 0 means the client always acts on the snapshot
// that was latest when Snapshot checked.
func (s *Server) NewClient(bound int) *Client {
	if bound < 0 {
		bound = 0
	}
	return &Client{srv: s, bound: uint64(bound)}
}

// NewClientDyn builds a client whose bound is read from the shared DynBound
// at every Snapshot call, so a learner-side adjustment takes effect for the
// actor's very next episode.
func (s *Server) NewClientDyn(bound *DynBound) *Client {
	return &Client{srv: s, dyn: bound}
}

// boundNow returns the bound in force for the next Snapshot call.
func (c *Client) boundNow() uint64 {
	if c.dyn != nil {
		return uint64(c.dyn.Get())
	}
	return c.bound
}

// Snapshot returns the snapshot the actor should act on and the staleness
// (server version at check time minus snapshot version, floored at 0) of
// what it returns. If the cached snapshot lags by more than the bound it is
// replaced with the server's latest first, so the returned lag never exceeds
// the bound: this is the staleness invariant the property tests pin down.
func (c *Client) Snapshot() (*Snapshot, uint64) {
	latest := c.srv.Version()
	if c.snap == nil || latest-c.snap.Version > c.boundNow() {
		c.snap = c.srv.Latest()
		c.refetches++
	}
	var lag uint64
	if latest > c.snap.Version {
		lag = latest - c.snap.Version
	}
	if lag > c.maxLag {
		c.maxLag = lag
	}
	return c.snap, lag
}

// Bound returns the client's staleness bound K currently in force.
func (c *Client) Bound() uint64 { return c.boundNow() }

// Refetches reports how many times the bound forced a refetch.
func (c *Client) Refetches() uint64 { return c.refetches }

// MaxLag reports the largest staleness the client ever acted on; it never
// exceeds the bound that was in force at that Snapshot call (for a fixed
// bound, never Bound; under a shrinking DynBound it may exceed the current
// bound but never the largest bound ever set).
func (c *Client) MaxLag() uint64 { return c.maxLag }
