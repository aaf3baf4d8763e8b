package registry

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzCheckpointSalvage throws arbitrary bytes at the checkpoint salvage
// parser. Whatever the corruption, loading must never panic, must be
// deterministic, and on success must yield only a verified contiguous
// prefix (indices 0..k-1) with a renderable salvage report.
func FuzzCheckpointSalvage(f *testing.F) {
	const grid = "fuzz-grid"
	header := "{\"version\":1,\"grid\":\"" + grid + "\"}\n"
	f.Add([]byte(""))
	f.Add([]byte(header))
	f.Add([]byte(header + `{"index":0}` + "\n" + `{"index":1}` + "\n" + `{"index":2}` + "\n"))
	f.Add([]byte(header + `{"index":0}` + "\n" + `{"index":0,"alg`)) // torn tail
	f.Add([]byte(header + `{"index":0}` + "\ngarbage\n" + `{"index":1}` + "\n"))
	f.Add([]byte(header + `{"index":0}` + "\ngarbage\n" + `{"index":2}` + "\n")) // swallowed record
	f.Add([]byte(header + `{"index":0}` + "\n" + `{"index":5}` + "\n"))          // clean gap: error
	f.Add([]byte(`{"version":9,"grid":"fuzz-grid"}` + "\n"))
	f.Add([]byte("not json\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		records, rep, err := LoadCheckpointRecords(path, grid, trialIndex)
		records2, rep2, err2 := LoadCheckpointRecords(path, grid, trialIndex)
		if (err == nil) != (err2 == nil) ||
			(err != nil && err.Error() != err2.Error()) {
			t.Fatalf("salvage not deterministic: %v vs %v", err, err2)
		}
		if err != nil {
			if records != nil || rep != nil {
				t.Fatalf("error %v returned with partial results", err)
			}
			return
		}
		if !reflect.DeepEqual(records, records2) || !reflect.DeepEqual(rep, rep2) {
			t.Fatalf("salvage not deterministic:\n%v %v\nvs\n%v %v", records, rep, records2, rep2)
		}
		for i, r := range records {
			if r.Index != i {
				t.Fatalf("record %d has index %d: prefix not contiguous", i, r.Index)
			}
		}
		// The report must always render, whatever was salvaged.
		_ = rep.String()
		_ = rep.Empty()
	})
}
