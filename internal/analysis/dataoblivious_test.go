// From go 1.23 on, go/types reports an alias such as core.Addr = hm.Addr
// as a *types.Alias by default.  The fixtures' core.Addr is such an alias,
// so the analyzers are tested on that representation already.
//
//go:debug gotypesalias=1

package analysis_test

import (
	"testing"

	"oblivhm/internal/analysis"
	"oblivhm/internal/analysis/atest"
)

func TestDataObliviousAnalyzer(t *testing.T) {
	atest.Run(t, "testdata", analysis.DataOblivious,
		"oblivhm/internal/dofix", // taint walk: branches, indices, addresses, space hints
	)
}
