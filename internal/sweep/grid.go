package sweep

import "oblivhm/internal/harness"

// Config is one grid cell: the harness run it measures.  Its JSON field
// names are the row schema of the JSONL output, and its Key and Hash
// are the identity a resumed sweep matches rows by.
type Config = harness.RunConfig

// Expand materializes the validated spec's grid in declaration order, axes
// nested algos → machines → sizes → options → seeds (outermost first).
// Per-axis uniqueness (enforced by Validate) makes the product
// duplicate-free, so the expansion is exactly len(algos)·len(machines)·
// len(sizes)·len(options)·len(seeds) configs, in an order that is a pure
// function of the spec.
func Expand(s *Spec) []Config {
	grid := make([]Config, 0, len(s.Algos)*len(s.Machines)*len(s.Sizes)*len(s.Options)*len(s.Seeds))
	for _, algo := range s.Algos {
		for _, mach := range s.Machines {
			for _, n := range s.Sizes {
				for _, opt := range s.Options {
					for _, seed := range s.Seeds {
						grid = append(grid, Config{Algo: algo, Machine: mach, N: n, Options: opt, Seed: seed})
					}
				}
			}
		}
	}
	return grid
}
