// Package hm is a testdata stub of the machine model: just enough surface
// for the oblivious analyzer fixtures to type-check.
package hm

// Addr is a word address in the machine's shared memory.
type Addr int64

// Config is a machine description an algorithm must never see.
type Config struct {
	Name string
}

// Presets mimics the real preset table.
func Presets() map[string]Config { return nil }
