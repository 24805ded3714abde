package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ramsis/internal/baselines"
	"ramsis/internal/profile"
)

// TestRunWritesLoadableTable runs the command at loads most models cannot
// sustain on the given workers — as at its default flags — so the table
// holds diverging cells, and checks that the file it writes decodes to
// exactly the table profiled in process. cmd/simulate's tests feed such a
// file to -ms-table.
func TestRunWritesLoadableTable(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	args := "-workers 8 -lo 200 -hi 600 -step 200 -dur 10 -seed 3 -out " + dir
	if err := run(context.Background(), strings.Fields(args), &out); err != nil {
		t.Fatalf("msgen %s: %v", args, err)
	}
	path := filepath.Join(dir, "MS_image_8w_150ms.json")
	if !strings.Contains(out.String(), path) {
		t.Errorf("stdout does not name %s:\n%s", path, out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got baselines.MSTable
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := baselines.ProfileModelSwitching(profile.ImageSet(), 0.150, 8, []float64{200, 400, 600}, 10, 3)
	if !reflect.DeepEqual(&got, want) {
		t.Errorf("decoded table differs from the profiled one:\n got %+v\nwant %+v", got, *want)
	}
	var diverging, finite int
	for _, row := range got.P99 {
		for _, v := range row {
			if math.IsInf(v, 1) {
				diverging++
			} else {
				finite++
			}
		}
	}
	if diverging == 0 || finite == 0 {
		t.Errorf("table has %d diverging and %d finite cells; the test needs both", diverging, finite)
	}
}
