package ampc

// Names the frozen wall-clock benchmark (benchmark/) still spells.  Nothing
// else in the tree uses them.  ROADMAP item 10's benchmark-only change moves
// the benchmark off them and deletes this file.

// Runtime is Job.
type Runtime = Job

// RunPipeline runs rounds in order, one Run each, and stops at the first
// error.
func (j *Job) RunPipeline(rounds []Round) error {
	for _, rd := range rounds {
		if err := j.Run(rd); err != nil {
			return err
		}
	}
	return nil
}

// Plan is what CompilePlan returns; it holds nothing.
type Plan struct{}

// CompilePlan does no work: rounds need no analysis before they run.
func (s *Session) CompilePlan(key string, stages []StagedRound) *Plan { return &Plan{} }

// PlanCacheStats is always zero: there is no plan cache.
type PlanCacheStats struct {
	Hits, Misses int64
}

// PlanCacheStats returns zeros.
func (s *Session) PlanCacheStats() PlanCacheStats { return PlanCacheStats{} }
