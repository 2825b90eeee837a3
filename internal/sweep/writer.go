package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// JSONLWriter streams one JSON object per line, the sweep's row format: a
// row is on the wire before the next run finishes, so a killed sweep loses
// at most the rows still in the bufio window, and every row carries its
// config hash, so ReadDone recovers the completed set from a partial file.
type JSONLWriter struct {
	enc *json.Encoder
	buf *bufio.Writer
}

func NewJSONLWriter(w io.Writer) *JSONLWriter {
	buf := bufio.NewWriter(w)
	return &JSONLWriter{enc: json.NewEncoder(buf), buf: buf}
}

func (w *JSONLWriter) Write(r Row) error { return w.enc.Encode(r) }
func (w *JSONLWriter) Flush() error      { return w.buf.Flush() }

// ReadRows parses a JSONL result stream back into rows, tolerating a
// truncated final line (the expected shape of a killed sweep).
func ReadRows(r io.Reader) ([]Row, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var rows []Row
	for i, text := range lines {
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		var row Row
		if err := json.Unmarshal([]byte(text), &row); err != nil {
			// A torn final line is the expected shape of a killed sweep
			// and is simply re-run on resume; garbage earlier is not.
			if i == len(lines)-1 {
				break
			}
			return nil, fmt.Errorf("sweep results line %d: %w", i+1, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ReadDone extracts the config-hash set from a JSONL result stream: the
// resume key set.  Rows that errored are not counted as done, so a resumed
// sweep retries them.
func ReadDone(r io.Reader) (map[string]bool, []Row, error) {
	rows, err := ReadRows(r)
	if err != nil {
		return nil, nil, err
	}
	done := make(map[string]bool, len(rows))
	for _, row := range rows {
		if row.Err == "" && row.Hash != "" {
			done[row.Hash] = true
		}
	}
	return done, rows, nil
}
