// Remote scenario dispatch: the coordinator half of the horizontal
// scale-out layer (DESIGN.md §14), exposed on the facade for cxlbench
// -remote. Cells are sharded across a cxlserve replica fleet by canonical
// key and the merged dataset is byte-identical to local serial execution.
package cxlmem

import (
	"context"

	"cxlmem/internal/cluster"
	"cxlmem/internal/experiments"
	"cxlmem/internal/workloads"
)

// remoteCoordinator resolves the configuration and builds a client-side
// coordinator over a comma-separated replica list, the syntax of cxlserve
// -peers ("host:8375" and "http://host:8375" spellings both accepted).
func remoteCoordinator(peers string, cfg RunConfig) (*cluster.Coordinator, experiments.Options, error) {
	o, err := cfg.options()
	if err != nil {
		return nil, o, err
	}
	list, err := cluster.ParsePeerList(peers)
	if err != nil {
		return nil, o, err
	}
	ring, err := cluster.NewRing("", list)
	if err != nil {
		return nil, o, err
	}
	return &cluster.Coordinator{Ring: ring}, o, nil
}

// RunRemoteScenarioMatrixDataset evaluates the full scenario cross product
// on a cxlserve replica fleet, given as a comma-separated replica list:
// each cell runs on the replica owning its canonical key, and the merged
// dataset is byte-identical to RunScenarioMatrixDataset computed locally.
func RunRemoteScenarioMatrixDataset(peers string, cfg RunConfig) (*Dataset, error) {
	co, o, err := remoteCoordinator(peers, cfg)
	if err != nil {
		return nil, err
	}
	return co.ScenarioDataset(context.Background(), o, "matrix-all",
		"full scenario matrix: workload x policy x size", experiments.AllMatrixScenarios())
}

// RunRemoteScenarioDataset evaluates one scenario spec on the replica that
// owns its canonical key, byte-identical to RunScenarioDataset.
func RunRemoteScenarioDataset(spec, peers string, cfg RunConfig) (*Dataset, error) {
	sc, err := workloads.ParseScenario(spec)
	if err != nil {
		return nil, err
	}
	co, o, err := remoteCoordinator(peers, cfg)
	if err != nil {
		return nil, err
	}
	return co.ScenarioResult(context.Background(), o, sc)
}
