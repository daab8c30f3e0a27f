package bench

import (
	"strings"
	"testing"
)

// quickOpts keeps the harness tests fast: the two smallest stand-ins only.
func quickOpts() Options {
	return Options{Datasets: []string{"OK"}, Seed: 1, Machines: 8, Threads: 4, MPCThreshold: 2000}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if len(o.Datasets) != 5 || o.Scale != 1 || o.Machines != 8 {
		t.Fatalf("defaults %+v", o)
	}
}

func TestTable2(t *testing.T) {
	rep, err := Table2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 2 {
		t.Fatalf("too few rows: %v", rep.Rows)
	}
	if !strings.Contains(rep.String(), "Table 2") {
		t.Fatal("report title missing")
	}
}

func TestTable3ShapeMatchesPaper(t *testing.T) {
	rows, _, err := Table3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.AMPCMIS != 1 || r.AMPCMM != 1 {
			t.Fatalf("AMPC MIS/MM should use one shuffle: %+v", r)
		}
		if r.AMPCMSF != 5 {
			t.Fatalf("AMPC MSF should use five shuffles: %+v", r)
		}
		if r.MPCMIS <= r.AMPCMIS || r.MPCMM <= r.AMPCMM || r.MPCMSF <= r.AMPCMSF {
			t.Fatalf("MPC baselines should need more shuffles: %+v", r)
		}
		if r.MPCMSF <= r.MPCMIS {
			t.Fatalf("MPC MSF should need more shuffles than MPC MIS (as in the paper): %+v", r)
		}
	}
}

func TestFigure3ShapeMatchesPaper(t *testing.T) {
	rows, _, err := Figure3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MPCShuffle <= r.AMPCShuffle {
			t.Fatalf("MPC should shuffle more bytes than AMPC: %+v", r)
		}
		if r.AMPCKVBytes == 0 {
			t.Fatalf("AMPC KV communication missing: %+v", r)
		}
	}
}

func TestFigure4ShapeMatchesPaper(t *testing.T) {
	rows, _, err := Figure4(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Both >= r.Unoptimized {
			t.Fatalf("both optimizations should beat the unoptimized run: %+v", r)
		}
		if r.OnlyCaching >= r.Unoptimized {
			t.Fatalf("caching alone should beat the unoptimized run: %+v", r)
		}
		if r.OnlyThreads >= r.Unoptimized {
			t.Fatalf("multithreading alone should beat the unoptimized run: %+v", r)
		}
		if r.KVBytesCache >= r.KVBytesNoOpt {
			t.Fatalf("caching should reduce key-value bytes: %+v", r)
		}
	}
}

func TestFigure5And6And7Speedups(t *testing.T) {
	opts := quickOpts()
	mis, _, err := Figure5(opts)
	if err != nil {
		t.Fatal(err)
	}
	mm, _, err := Figure6(opts)
	if err != nil {
		t.Fatal(err)
	}
	msf, _, err := Figure7(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range mis {
		if r.SpeedupSim <= 1 {
			t.Fatalf("AMPC MIS should beat MPC on modeled time: %+v", r)
		}
	}
	for _, r := range mm {
		if r.SpeedupSim <= 1 {
			t.Fatalf("AMPC MM should beat MPC on modeled time: %+v", r)
		}
	}
	for _, r := range msf {
		if r.SpeedupSim <= 1 {
			t.Fatalf("AMPC MSF should beat MPC on modeled time: %+v", r)
		}
	}
}

func TestFigure8SpeedupIncreasesWithMachines(t *testing.T) {
	rows, _, err := Figure8(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	last := rows[len(rows)-1]
	if last.Machines != 100 {
		t.Fatalf("last row should be 100 machines: %+v", last)
	}
	// The OK stand-in is the smallest dataset, where the paper also observes
	// the weakest scaling (1.64x); require a clear but modest speedup.
	if last.Speedup <= 1.3 {
		t.Fatalf("100 machines should be clearly faster than 1: %+v", last)
	}
	if last.Speedup < rows[0].Speedup {
		t.Fatalf("speedup should not degrade below the 1-machine baseline: %+v", rows)
	}
}

func TestFigure9LinearTrend(t *testing.T) {
	opts := quickOpts()
	opts.Datasets = []string{"OK", "TW"}
	rows, _, err := Figure9(opts)
	if err != nil {
		t.Fatal(err)
	}
	// For each algorithm, the larger graph must communicate more bytes.
	byAlgo := map[string][]Figure9Row{}
	for _, r := range rows {
		byAlgo[r.Algorithm] = append(byAlgo[r.Algorithm], r)
	}
	for algo, rs := range byAlgo {
		if len(rs) != 2 {
			t.Fatalf("%s: unexpected rows %v", algo, rs)
		}
		small, large := rs[0], rs[1]
		if small.Edges > large.Edges {
			small, large = large, small
		}
		if large.KVBytes <= small.KVBytes {
			t.Fatalf("%s: KV communication should grow with edges: %+v vs %+v", algo, small, large)
		}
	}
}

func TestTable4ShapeMatchesPaper(t *testing.T) {
	opts := quickOpts()
	rows, _, err := Table4(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.TCPNorm <= 1 {
			t.Fatalf("TCP should be slower than RDMA: %+v", r)
		}
		if r.MPCNorm <= r.TCPNorm {
			t.Fatalf("the MPC baseline should be slower than the TCP/IP AMPC variant: %+v", r)
		}
	}
	// The latency penalty must hit 1-vs-2-Cycle harder than MIS (long
	// strictly-sequential walks vs shallow recursions).
	var cycTCP, misTCP float64
	var cycN, misN int
	for _, r := range rows {
		if r.Problem == "2-Cyc" {
			cycTCP += r.TCPNorm
			cycN++
		} else {
			misTCP += r.TCPNorm
			misN++
		}
	}
	if cycN > 0 && misN > 0 && cycTCP/float64(cycN) <= misTCP/float64(misN) {
		t.Fatalf("TCP penalty should be larger for 1-vs-2-Cycle (%.2f) than MIS (%.2f)",
			cycTCP/float64(cycN), misTCP/float64(misN))
	}
}

func TestSection56CycleSpeedup(t *testing.T) {
	rows, _, err := Section56Cycle(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Speedup <= 1 {
			t.Fatalf("AMPC 1-vs-2-Cycle should beat the MPC baseline: %+v", r)
		}
		if r.MPCShuffles <= r.AMPCShuffles {
			t.Fatalf("MPC should need more shuffles: %+v", r)
		}
	}
	// Speedup should not shrink as the cycles grow (the paper reports it
	// increasing with the input size).
	if len(rows) >= 2 && rows[len(rows)-1].Speedup < rows[0].Speedup*0.8 {
		t.Fatalf("speedup should not collapse with input size: %+v", rows)
	}
}

func TestSection57ContractionDominates(t *testing.T) {
	rows, _, err := Section57Connectivity(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ContractShare <= 0.2 {
			t.Fatalf("contraction share suspiciously small: %+v", r)
		}
		if r.NumComponents < 1 {
			t.Fatalf("bad component count: %+v", r)
		}
	}
}
