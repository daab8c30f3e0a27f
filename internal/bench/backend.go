package bench

import (
	"fmt"
	"time"

	"ampcgraph/internal/ampc"
)

// The backend experiment compares the three shard storage engines behind the
// dht.ShardBackend seam: in-memory maps (the default), log-structured
// per-shard files on disk, and a loopback socket transport.  The backend
// only stores bytes — routing, accounting and the algorithms live above the
// seam — so the results must be byte-identical; what changes is the resource
// profile: the disk backend keeps only its key index resident (spilling past
// RAM), and the rpc backend pays real wire costs, which it measures and
// feeds back as a calibrated simtime cost model.

// BackendRow is one (dataset, backend) point of the storage-backend
// comparison, measured by running MIS (the Get-heavy workload).
type BackendRow struct {
	Graph   string `json:"graph"`
	Backend string `json:"backend"`
	// Identical reports whether this backend produced the same MIS as the
	// in-memory reference (trivially true for the mem row itself).
	Identical bool `json:"identical"`
	// Wall and Sim are the wall-clock and modeled running times.
	Wall time.Duration `json:"wall_ns"`
	Sim  time.Duration `json:"sim_ns"`
	// DiskBytes and ResidentBytes describe the disk backend's footprint:
	// bytes in the shard log files versus the in-memory index estimate.
	DiskBytes     int64 `json:"disk_bytes,omitempty"`
	ResidentBytes int64 `json:"resident_bytes,omitempty"`
	// WireReadOps/WriteOps/Bytes count the rpc backend's round trips, and
	// MeasuredReadRTT/WriteRTT are the mean observed latencies that
	// Job.MeasuredCostModel turns into a calibrated simtime.CostModel.
	WireReadOps      int64         `json:"wire_read_ops,omitempty"`
	WireWriteOps     int64         `json:"wire_write_ops,omitempty"`
	WireBytes        int64         `json:"wire_bytes,omitempty"`
	MeasuredReadRTT  time.Duration `json:"measured_read_rtt_ns,omitempty"`
	MeasuredWriteRTT time.Duration `json:"measured_write_rtt_ns,omitempty"`
}

// BackendComparison runs MIS on every dataset of opts once per storage
// backend, verifying byte-identical results against the in-memory reference
// and reporting each backend's resource profile.
func BackendComparison(opts Options) ([]BackendRow, Report, error) {
	opts = opts.withDefaults()
	rep := Report{
		Title: "Storage backends: in-memory vs disk-resident vs loopback rpc shards (MIS)",
		Header: fmt.Sprintf("%-8s %-8s %10s %12s %12s %12s %10s %10s",
			"graph", "backend", "identical", "model-time", "disk-bytes", "resident", "rtt-read", "rtt-write"),
		Notes: []string{
			"the backend only stores bytes (routing, accounting and algorithms live above the dht.ShardBackend seam), so results are required to be byte-identical",
			"disk keeps only the key index resident and spills values to per-shard log files; resident << disk-bytes is the spill headroom",
			"rpc pays real loopback round trips; the measured RTTs feed back as a calibrated simtime cost model (Job.MeasuredCostModel)",
		},
	}
	var rows []BackendRow
	for _, ng := range opts.graphs() {
		in := &inputs{g: ng.g}
		var ref outputs
		for _, backend := range []string{ampc.BackendMem, ampc.BackendDisk, ampc.BackendRPC} {
			cfg := opts.ampcConfig()
			cfg.Backend = backend
			start := time.Now()
			out, err := in.run(cfg, "MIS")
			wall := time.Since(start)
			if err != nil {
				return nil, rep, fmt.Errorf("%s on %s backend: %w", ng.name, backend, err)
			}
			if backend == ampc.BackendMem {
				ref = out
			}
			st := out.Stats["MIS"]
			bs := st.Backend
			row := BackendRow{
				Graph:            ng.name,
				Backend:          backend,
				Identical:        out.Matches(ref, in),
				Wall:             wall,
				Sim:              st.Sim,
				DiskBytes:        bs.DiskBytes,
				ResidentBytes:    bs.ResidentBytes,
				WireReadOps:      bs.WireReadOps,
				WireWriteOps:     bs.WireWriteOps,
				WireBytes:        bs.WireBytes,
				MeasuredReadRTT:  bs.MeasuredReadRTT(),
				MeasuredWriteRTT: bs.MeasuredWriteRTT(),
			}
			rows = append(rows, row)
			rep.Rows = append(rep.Rows, fmt.Sprintf("%-8s %-8s %10v %12s %12d %12d %10s %10s",
				row.Graph, row.Backend, row.Identical, row.Sim.Round(time.Millisecond),
				row.DiskBytes, row.ResidentBytes, row.MeasuredReadRTT.Round(time.Microsecond),
				row.MeasuredWriteRTT.Round(time.Microsecond)))
		}
	}
	return rows, rep, nil
}

// backendGates projects a non-default backend's row (the mem run is the
// reference the others are compared against) onto the gated metrics.  Both are
// deterministic for a pinned seed: Identical compares the backend's output
// with the in-memory reference byte for byte, and the disk row's spill
// ratio DiskBytes / ResidentBytes — its headroom past RAM — is a pure
// function of the run's store traffic (wall-clock and wire timings are
// deliberately excluded).
func backendGates(row BackendRow) []GateRow {
	key := row.Graph + "/" + row.Backend
	switch row.Backend {
	case ampc.BackendMem:
		return nil
	case ampc.BackendDisk:
		return []GateRow{identicalRow(key, row.Identical),
			gateRow(key, "spill_ratio", GateFrac, safeRatio(float64(row.DiskBytes), float64(row.ResidentBytes)))}
	}
	return []GateRow{identicalRow(key, row.Identical)}
}
