// Package experiment regenerates every figure of the paper's evaluation:
// Figure 3 (a, b, c) from the ReJOIN case study, the §4 negative results
// (naive full-space DRL, latency-as-reward from scratch), and the predicted
// behaviours of the §5 research directions (learning from demonstration,
// cost-model bootstrapping, incremental learning).
//
// Each experiment returns a typed result carrying the raw series/tables plus
// a Render method producing the aligned-text form the CLI prints. The
// associated benchmarks in the repository root drive the same entry points.
package experiment

import (
	"fmt"

	"handsfree/internal/cost"
	"handsfree/internal/datagen"
	"handsfree/internal/engine"
	"handsfree/internal/featurize"
	"handsfree/internal/optimizer"
	"handsfree/internal/stats"
	"handsfree/internal/workload"
)

// LabConfig seeds and scales the shared experimental substrate.
type LabConfig struct {
	// Seed drives data generation.
	Seed int64
	// Scale is the database scale factor (1.0 ≈ 400k rows).
	Scale float64
	// OracleSeed selects the systematic cardinality-error field.
	OracleSeed int64
	// LatencySeed selects the execution-noise field.
	LatencySeed int64
}

// DefaultLabConfig is the configuration used by the recorded experiments.
func DefaultLabConfig() LabConfig {
	return LabConfig{Seed: 1, Scale: 0.25, OracleSeed: 11, LatencySeed: 5}
}

// QuickLabConfig is a miniature substrate for tests and smoke runs.
func QuickLabConfig() LabConfig {
	return LabConfig{Seed: 1, Scale: 0.05, OracleSeed: 11, LatencySeed: 5}
}

// Lab is the shared substrate: one synthetic database with its statistics,
// cost model, traditional optimizer, truth oracle, and latency simulator.
type Lab struct {
	Cfg      LabConfig
	DB       *datagen.Database
	Est      *stats.Estimator
	Oracle   *stats.Oracle
	Model    *cost.Model
	Planner  *optimizer.Planner
	Latency  *engine.LatencyModel
	Workload *workload.Workload
}

// NewLab builds the substrate.
func NewLab(cfg LabConfig) (*Lab, error) {
	db, err := datagen.Generate(datagen.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	est := stats.NewEstimator(db.Catalog, db.Stats)
	oracle := stats.NewOracle(est, cfg.OracleSeed)
	model := cost.New(cost.DefaultParams(), est)
	return &Lab{
		Cfg:      cfg,
		DB:       db,
		Est:      est,
		Oracle:   oracle,
		Model:    model,
		Planner:  optimizer.New(db.Catalog, model),
		Latency:  engine.NewLatencyModel(oracle, cfg.LatencySeed),
		Workload: workload.New(db),
	}, nil
}

// Space builds a featurization space sized for queries up to maxRels.
func (l *Lab) Space(maxRels int) *featurize.Space {
	return featurize.NewSpace(maxRels, l.Est)
}
