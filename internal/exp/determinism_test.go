package exp

import (
	"reflect"
	"testing"
)

// The worker-count invariance tests are the regression guard for the
// parallel experiment drivers: the same seed must give byte-identical
// tables whether the rows run on one worker or eight. They run at tiny
// scales — equality, not statistical quality, is what is under test.

func TestTableIWorkerCountInvariance(t *testing.T) {
	run := func(workers int) []TableIRow {
		rows, err := TableI(TableIOptions{
			Scale:    0.008,
			Patterns: 1 << 11,
			Circuits: []string{"b20", "s38417"},
			Workers:  workers,
			Seed:     21,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	serial := run(1)
	if parallel := run(8); !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("Table I diverged across worker counts:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

func TestTableIIWorkerCountInvariance(t *testing.T) {
	run := func(workers int) []TableIIRow {
		rows, err := TableII(TableIIOptions{
			Scale:    0.006,
			Circuits: []string{"b20", "b21"},
			Workers:  workers,
			Seed:     22,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	serial := run(1)
	if parallel := run(8); !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("Table II diverged across worker counts:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

func TestSweepWorkerCountInvariance(t *testing.T) {
	ctrlSerial, err := CtrlWidthSweep(23, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctrlParallel, err := CtrlWidthSweep(23, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ctrlSerial, ctrlParallel) {
		t.Fatalf("ctrl-width sweep diverged: %+v vs %+v", ctrlSerial, ctrlParallel)
	}
	keySerial, err := KeySizeSweep(24, 1)
	if err != nil {
		t.Fatal(err)
	}
	keyParallel, err := KeySizeSweep(24, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keySerial, keyParallel) {
		t.Fatalf("key-size sweep diverged: %+v vs %+v", keySerial, keyParallel)
	}
}
