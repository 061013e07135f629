package handsfree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"slices"
	"testing"

	"handsfree/internal/featurize"
	"handsfree/internal/optimizer"
	"handsfree/internal/plan"
)

// Golden digests of what the planning stack computes over a fixed workload.
// They pin refactors of the relation-set, enumeration and featurization code
// to the exact plans, costs and state vectors those layers produced before:
// a change to any of them is a behaviour change, not a refactor.
const (
	expertDigestExact  = "08b65f427f135e414328705738cd9bcd857178d1a2219aa81919fb1a124c478d"
	expertDigestSketch = "eb35f9c6dff006b32780647c1f451f0ad0becb8c7a06b9174501d29b94d51b97"
	joinStateDigest    = "4331d4f47ca96f35bbb3c5bc332368eb8ea0d3953254b39f5f687da88c4ddf6e"
)

// identityQueries is the fixed 4–12-relation query list the digests cover
// (relation counts 8 4 9 4 4 12 6 7 10 6 7 6).
func identityQueries(t *testing.T, sys *System) []*Query {
	t.Helper()
	qs, err := sys.Workload.Training(12, 4, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

func hashPlan(h hash.Hash, root PlanNode, cost, rows float64) {
	h.Write([]byte(root.Signature()))
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], math.Float64bits(cost))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(rows))
	h.Write(b[:])
}

// TestExpertPlanDigest: DP, Greedy and GEQO plans plus CompletePhysical of
// seeded random join orders hash to a recorded digest, in both statistics
// modes. Sketch estimates cost an order of magnitude more per call than
// histogram ones, so the sketch leg covers the queries of up to 8 relations.
func TestExpertPlanDigest(t *testing.T) {
	for _, tc := range []struct {
		mode    StatsMode
		maxRels int
		want    string
	}{{StatsExact, 12, expertDigestExact}, {StatsSketch, 8, expertDigestSketch}} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			_, sys := testSystem(t, WithStats(tc.mode))
			h := sha256.New()
			for i, q := range identityQueries(t, sys) {
				if len(q.Relations) > tc.maxRels {
					continue
				}
				for _, s := range []optimizer.Strategy{optimizer.DP, optimizer.Greedy, optimizer.GEQO} {
					p, err := sys.Planner.PlanWith(q, s)
					if err != nil {
						t.Fatalf("%s %s: %v", q.Name, s, err)
					}
					hashPlan(h, p.Root, p.Cost, p.Rows)
				}
				rng := rand.New(rand.NewSource(int64(i)))
				for k := 0; k < 3; k++ {
					root, nc := sys.Planner.CompletePhysical(q, optimizer.RandomOrder(q, rng))
					hashPlan(h, root, nc.Total, nc.Rows)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Fatalf("expert plan digest = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestJoinStateDigest: the subtree, join-graph and selectivity blocks of
// JoinStateInto over seeded random merge sequences hash to a recorded
// digest.
func TestJoinStateDigest(t *testing.T) {
	_, sys := testSystem(t)
	const maxRels = 12
	space := featurize.NewSpace(maxRels, sys.Est)
	var sc featurize.Scratch
	h := sha256.New()
	for i, q := range identityQueries(t, sys) {
		sc.Reset()
		rng := rand.New(rand.NewSource(int64(i)))
		var forest []plan.Node
		for _, a := range featurize.AliasIndex(q) {
			forest = append(forest, plan.BuildScan(q, a, plan.SeqScan, ""))
		}
		for {
			v := space.JoinStateInto(make([]float64, space.ObsDim()), q, forest, &sc)
			for _, x := range v[:2*maxRels*maxRels+maxRels] {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
				h.Write(b[:])
			}
			if len(forest) == 1 {
				break
			}
			x := rng.Intn(len(forest))
			y := rng.Intn(len(forest) - 1)
			if y >= x {
				y++
			}
			joined := plan.JoinNodes(q, plan.HashJoin, forest[x], forest[y])
			next := forest[:0:0]
			for k, n := range forest {
				if k != x && k != y {
					next = append(next, n)
				}
			}
			forest = append(next, joined)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != joinStateDigest {
		t.Fatalf("join-state digest = %s, want %s", got, joinStateDigest)
	}
}

// TestExpertPlanWorkPinned: executing the expert plans of a fixed query list
// performs exactly the recorded work.
func TestExpertPlanWorkPinned(t *testing.T) {
	_, sys := testSystem(t, WithStats(StatsExact))
	qs, err := sys.Workload.Training(8, 4, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{10911, 27629, 37942, 18011, 10710, 32812, 78393, 165535}
	var got []int64
	for _, q := range qs {
		p, err := sys.Planner.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		_, w, err := sys.Execute(q, p.Root)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		got = append(got, w.Total())
	}
	if !slices.Equal(got, want) {
		t.Fatalf("work totals %v, want %v", got, want)
	}
}
