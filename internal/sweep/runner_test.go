package sweep

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// testSpec is a small real grid (fast workloads, tiny sizes) used by the
// determinism and resume tests.
func testSpec() *Spec {
	return &Spec{
		Name:     "runner-test",
		Algos:    []string{"scan", "mm"},
		Machines: []string{"mc3", "hm4"},
		Sizes:    []int{1 << 8, 1 << 10},
		Seeds:    []int64{0, 1},
		Options:  []string{"default", "flat"},
	}
}

func runToJSONL(t *testing.T, spec *Spec, workers int) string {
	t.Helper()
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	if err := Run(spec, RunnerOpts{Workers: workers}, w.Write); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSweepDeterminism is the determinism contract extended to the sweep
// layer: the same spec produces byte-identical JSONL on repeated runs and
// across worker counts — both as emitted (the per-cell slots guarantee
// grid order) and as sorted line sets.
func TestSweepDeterminism(t *testing.T) {
	spec := testSpec()
	first := runToJSONL(t, spec, 1)
	if first == "" {
		t.Fatal("no output")
	}
	if n := strings.Count(first, "\n"); n != len(Expand(spec)) {
		t.Fatalf("rows = %d, want %d", n, len(Expand(spec)))
	}
	again := runToJSONL(t, spec, 1)
	if again != first {
		t.Error("same spec, workers=1, twice: output differs")
	}
	for _, workers := range []int{4, 13} {
		par := runToJSONL(t, spec, workers)
		if par != first {
			t.Errorf("workers=%d: emitted stream differs from workers=1", workers)
		}
		if sortLines(par) != sortLines(first) {
			t.Errorf("workers=%d: even the sorted line sets differ", workers)
		}
	}
}

func sortLines(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestSweepResume splits a grid into a "prior" half and a resumed run and
// requires prior + resumed emissions to reproduce the full run exactly.
func TestSweepResume(t *testing.T) {
	spec := testSpec()
	full := runToJSONL(t, spec, 2)
	lines := strings.SplitAfter(full, "\n")

	cut := len(Expand(spec)) / 2
	prior := strings.Join(lines[:cut], "")
	done, rows, err := ReadDone(strings.NewReader(prior))
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != cut || len(rows) != cut {
		t.Fatalf("ReadDone: %d hashes, %d rows, want %d", len(done), len(rows), cut)
	}

	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	if err := Run(spec, RunnerOpts{Workers: 3, Done: done}, w.Write); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := prior + buf.String(); got != full {
		t.Error("prior + resumed output differs from the uninterrupted run")
	}
}

// TestSweepEmitErrorStops verifies an emit failure aborts the sweep: the
// error surfaces, no further rows are emitted, and the call still returns
// (all in-flight workers drained).
func TestSweepEmitErrorStops(t *testing.T) {
	spec := testSpec()
	boom := errors.New("disk full")
	var emitted int
	err := Run(spec, RunnerOpts{Workers: 4}, func(r Row) error {
		emitted++
		if emitted == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if emitted != 3 {
		t.Errorf("emit called %d times after error, want exactly 3", emitted)
	}
}

// TestRunnerRecordsEngineErrors pins the error-row contract: a workload
// that rejects its input size lands in Row.Err, the sweep completes, and
// ReadDone refuses to mark the errored cell done.
func TestRunnerRecordsEngineErrors(t *testing.T) {
	// mt needs a dense square power-of-two matrix; n=512 gives side 22.
	spec := &Spec{Algos: []string{"mt"}, Machines: []string{"mc3"}, Sizes: []int{512}}
	rows, err := Collect(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Err == "" {
		t.Fatalf("want one errored row, got %+v", rows)
	}
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	if err := w.Write(rows[0]); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	done, _, err := ReadDone(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Errorf("errored row counted as done: %v", done)
	}
}

// TestProgressReporting checks the callback sees every completion and a
// consistent total.
func TestProgressReporting(t *testing.T) {
	spec := &Spec{Algos: []string{"scan"}, Machines: []string{"mc3"}, Sizes: []int{64, 128, 256}}
	var calls []string
	err := Run(spec, RunnerOpts{Workers: 2, Progress: func(done, total int) {
		calls = append(calls, fmt.Sprintf("%d/%d", done, total))
	}}, func(Row) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 3 || calls[len(calls)-1] != "3/3" {
		t.Errorf("progress calls = %v", calls)
	}
}

func TestReadRowsTornTail(t *testing.T) {
	spec := &Spec{Algos: []string{"scan"}, Machines: []string{"mc3"}, Sizes: []int{64, 128}}
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	if err := Run(spec, RunnerOpts{}, w.Write); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	full := buf.String()

	torn := full[:len(full)-10] // cut mid-way through the final JSON object
	rows, err := ReadRows(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("want 1 intact row from torn file, got %d", len(rows))
	}

	garbage := "not json at all\n" + full
	if _, err := ReadRows(strings.NewReader(garbage)); err == nil {
		t.Error("mid-file garbage accepted")
	}
}
