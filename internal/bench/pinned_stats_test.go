package bench

import (
	"fmt"
	"strings"
	"testing"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/gen"
)

// pinnedStats are the modeled-side counters of the five algorithms on the
// Hyperlink stand-in at scale 1 (MSF on its weighted copy, 1-vs-2-Cycle on
// two 2 500-cycles), seed 1, two machines of one thread — recorded at the
// commit before the shuffles moved onto the worker pool.  A host-side
// shuffle stage is phase-accounted and never a round, so moving one must
// leave every number here as it was: reads, KV bytes, modeled time, rounds,
// shuffles, shuffle bytes and the phase list.  A change that means to move
// one (ROADMAP: "drop the empty-list lookup") re-records the line
// and says so.
var pinnedStats = map[string]string{
	"plain/MIS": "reads=17018 kvbytes=3854940 sim=382586442 rounds=3 shuffles=1 shufflebytes=2365464 phases=DirectGraph,KV-Write,IsInMIS,IsInMIS-spill",
	"plain/MM":  "reads=43709 kvbytes=14093944 sim=607563584 rounds=3 shuffles=1 shufflebytes=4626928 phases=PermuteGraph,KV-Write,IsInMM,IsInMM-spill",
	"plain/MSF": "reads=43252 kvbytes=17977080 sim=1664548794 rounds=4 shuffles=5 shufflebytes=28361248 phases=SortGraph,KV-Write,PrimSearch,Combine,PointerJump,Contract,FinishMSF",
	"plain/CC":  "reads=86101 kvbytes=30056544 sim=2488174648 rounds=6 shuffles=6 shufflebytes=28581816 phases=SortGraph,KV-Write,PrimSearch,Combine,PointerJump,Contract,FinishMSF,PointerJump-cc",
	"plain/CY":  "reads=4994 kvbytes=199880 sim=560800888 rounds=2 shuffles=2 shufflebytes=60096 phases=Sample,Shuffle,KV-Write,Walk,Contract",
	"tuned/MIS": "reads=12582 kvbytes=3732808 sim=342195692 rounds=3 shuffles=1 shufflebytes=2365464 phases=DirectGraph,KV-Write+IsInMIS+IsInMIS-spill",
	"tuned/MM":  "reads=28944 kvbytes=11424264 sim=494332834 rounds=3 shuffles=1 shufflebytes=4626928 phases=PermuteGraph,KV-Write+IsInMM+IsInMM-spill",
	"tuned/MSF": "reads=37137 kvbytes=17568432 sim=1582921394 rounds=4 shuffles=5 shufflebytes=28361248 phases=SortGraph,KV-Write+PrimSearch,Combine,PointerJump,Contract,FinishMSF",
	"tuned/CC":  "reads=78615 kvbytes=29215596 sim=2429138648 rounds=6 shuffles=6 shufflebytes=28581816 phases=SortGraph,KV-Write+PrimSearch,Combine,PointerJump,Contract,FinishMSF,PointerJump-cc",
	// Re-recorded (sim 554983388 -> 551472788) when the batched walk's blocks
	// were cut at ownership boundaries: each machine now walks its own cycle
	// against co-located shards instead of machine 0 walking both, so the
	// walk's modeled latency halves and its remote reads vanish; reads, KV
	// bytes, rounds, shuffles and phases are as they were.
	"tuned/CY": "reads=4994 kvbytes=199880 sim=551472788 rounds=2 shuffles=2 shufflebytes=60096 phases=Sample,Shuffle,KV-Write+Walk,Contract",
}

func statsLine(st ampc.Stats) string {
	names := make([]string, len(st.Phases))
	for i, ph := range st.Phases {
		names[i] = ph.Name
	}
	return fmt.Sprintf("reads=%d kvbytes=%d sim=%d rounds=%d shuffles=%d shufflebytes=%d phases=%s",
		st.KVReads, st.KVBytesTotal, int64(st.Sim), st.Rounds, st.Shuffles, st.ShuffleBytes, strings.Join(names, ","))
}

func TestPinnedStatsHyperlink(t *testing.T) {
	if testing.Short() {
		t.Skip("five algorithms on HLx1 twice")
	}
	d, _ := gen.DatasetByName("HL")
	in := &inputs{g: d.Build(1, 1), cycleG: gen.TwoCycles(2_500)}
	plain := ampc.Config{Machines: 2, Threads: 1, EnableCache: true, Seed: 1}
	tuned := plain
	tuned.Batch, tuned.Pipeline, tuned.Placement = true, true, ampc.PlacementWeighted
	for _, arm := range []struct {
		name string
		cfg  ampc.Config
	}{{"plain", plain}, {"tuned", tuned}} {
		out, err := in.runValid(arm.cfg)
		if err != nil {
			t.Fatalf("%s: %v", arm.name, err)
		}
		for _, a := range fiveAlgos {
			key := arm.name + "/" + a
			if got := statsLine(out.Stats[a]); got != pinnedStats[key] {
				t.Errorf("%s:\n got  %s\n want %s", key, got, pinnedStats[key])
			}
		}
	}
}
