package hm

import (
	"sort"
	"strings"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for name, cfg := range Presets() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
	}
}

// TestPresetNamesListsEveryPreset: the sorted list behind hmsim's usage
// and the unknown-machine errors names every preset once.
func TestPresetNamesListsEveryPreset(t *testing.T) {
	names := PresetNames()
	if !sort.StringsAreSorted(names) || len(names) != len(Presets()) {
		t.Fatalf("PresetNames() = %v: want the %d presets, sorted", names, len(Presets()))
	}
	for name := range Presets() {
		if i := sort.SearchStrings(names, name); i == len(names) || names[i] != name {
			t.Errorf("PresetNames() = %v lacks %q", names, name)
		}
	}
}

func TestCoreCounts(t *testing.T) {
	cases := []struct {
		cfg   Config
		cores int
	}{
		{Seq(), 1},
		{MC3(8), 8},
		{HM4(4, 4), 16},
		{HM5(2, 4, 4), 32},
	}
	for _, c := range cases {
		if got := c.cfg.Cores(); got != c.cores {
			t.Errorf("%s: cores = %d, want %d", c.cfg.Name, got, c.cores)
		}
	}
}

func TestCachesAtAndCoresUnder(t *testing.T) {
	cfg := HM5(2, 4, 4) // 32 cores
	// q_i = product of arities above level i.
	wantQ := []int{32, 16, 4, 1}
	wantPU := []int{1, 2, 8, 32}
	for i := 1; i <= 4; i++ {
		if got := cfg.CachesAt(i); got != wantQ[i-1] {
			t.Errorf("q_%d = %d, want %d", i, got, wantQ[i-1])
		}
		if got := cfg.CoresUnder(i); got != wantPU[i-1] {
			t.Errorf("p'_%d = %d, want %d", i, got, wantPU[i-1])
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []struct {
		name string
		cfg  Config
		frag string
	}{
		{"no levels", Config{Name: "x"}, "no cache levels"},
		{"l1 shared", Config{Name: "x", Levels: []LevelSpec{{Capacity: 64, Block: 8, Arity: 2}}}, "p_1 = 1"},
		{"non pow2", Config{Name: "x", Levels: []LevelSpec{{Capacity: 96, Block: 8, Arity: 1}}}, "powers of two"},
		{"not tall", Config{Name: "x", Levels: []LevelSpec{{Capacity: 64, Block: 16, Arity: 1}}}, "not tall"},
		{"shrinking capacity", Config{Name: "x", Levels: []LevelSpec{
			{Capacity: 1 << 10, Block: 8, Arity: 1},
			{Capacity: 1 << 9, Block: 8, Arity: 2},
		}}, "not strictly larger"},
		{"slow-growing capacity", Config{Name: "x", Levels: []LevelSpec{
			{Capacity: 1 << 10, Block: 8, Arity: 1},
			{Capacity: 1 << 11, Block: 8, Arity: 4},
		}}, "C_i >= p_i*C_{i-1}"},
		{"zero fan-out", Config{Name: "x", Levels: []LevelSpec{
			{Capacity: 1 << 10, Block: 8, Arity: 1},
			{Capacity: 1 << 14, Block: 8, Arity: 0},
		}}, "fan-out (arity) must be >= 1"},
		{"oversized fan-out", Config{Name: "x", Levels: []LevelSpec{
			{Capacity: 1 << 10, Block: 8, Arity: 1},
			{Capacity: 1 << 20, Block: 8, Arity: 65},
		}}, "64-core limit"},
		{"shrinking block", Config{Name: "x", Levels: []LevelSpec{
			{Capacity: 1 << 10, Block: 16, Arity: 1},
			{Capacity: 1 << 12, Block: 8, Arity: 2},
		}}, "smaller than"},
		{"too many cores", Config{Name: "x", Levels: []LevelSpec{
			{Capacity: 1 << 10, Block: 8, Arity: 1},
			{Capacity: 1 << 20, Block: 8, Arity: 128},
		}}, "exceeds"},
		// Bad Ways on a 64-block level.  With a Ways that is not a power of
		// two the sets would not cover the cache: 48 ways hold 48 blocks.
		{"negative ways", Config{Name: "x", Levels: []LevelSpec{{Capacity: 1 << 9, Block: 8, Arity: 1, Ways: -1}}}, "level 1: ways -1 must be"},
		{"3 ways", Config{Name: "x", Levels: []LevelSpec{{Capacity: 1 << 9, Block: 8, Arity: 1, Ways: 3}}}, "level 1: ways 3 must be"},
		{"12 ways", Config{Name: "x", Levels: []LevelSpec{{Capacity: 1 << 9, Block: 8, Arity: 1, Ways: 12}}}, "level 1: ways 12 must be"},
		{"48 ways", Config{Name: "x", Levels: []LevelSpec{{Capacity: 1 << 9, Block: 8, Arity: 1, Ways: 48}}}, "level 1: ways 48 must be"},
	}
	for _, b := range bad {
		err := b.cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted invalid config", b.name)
			continue
		}
		if !strings.Contains(err.Error(), b.frag) {
			t.Errorf("%s: error %q does not mention %q", b.name, err, b.frag)
		}
	}
}

func TestConfigString(t *testing.T) {
	s := MC3(4).String()
	for _, frag := range []string{"mc3", "p=4", "L1:", "L2:"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}
