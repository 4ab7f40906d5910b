package guard

import (
	"fmt"
	"io"
	"strings"
)

// Incident is one recorded health event (cold path — formatting and
// appending may allocate; incidents only occur on faults).
type Incident struct {
	// Iter the incident was detected at.
	Iter int
	// Health classification and trigger.
	Health Health
	Reason Reason
	// Action the supervisor took ("rollback to iter N", "surrender", …).
	Action string
	// Detail carries the diagnostic (panic value, serial-replay stack,
	// non-finite counts); may be multi-line.
	Detail string
}

// Report is the structured fault-tolerance record of one supervised run.
type Report struct {
	// Incidents in detection order.
	Incidents []Incident
	// Rollbacks actually performed; Retries counts budget consumed
	// (a surrender attempt consumes budget without a rollback target).
	Rollbacks int
	// Surrendered: the retry budget was exhausted and the run returned
	// its best-seen finite solution instead of erroring out.
	Surrendered bool
	// CheckpointIter is the iteration of the last healthy checkpoint
	// taken (-1 when none).
	CheckpointIter int
	// DurableIter is the iteration of the last checkpoint durably
	// committed to the checkpoint directory (-1 when durable
	// checkpointing was off or no save succeeded).
	DurableIter int
	// ResumedFrom is the checkpoint iteration this run resumed from
	// (-1 for a cold start).
	ResumedFrom int
	// DeadlineExceeded: the run hit its wall-clock deadline (or external
	// cancellation) and exited through the graceful-surrender path.
	DeadlineExceeded bool
}

// Healthy reports whether the run completed without a single incident.
func (r *Report) Healthy() bool { return r == nil || len(r.Incidents) == 0 }

// Record appends an incident.
func (r *Report) Record(inc Incident) { r.Incidents = append(r.Incidents, inc) }

// String is a one-line summary for logs.
func (r *Report) String() string {
	if r == nil {
		return "guard: disabled"
	}
	if r.Healthy() {
		return "guard: healthy (no incidents)"
	}
	state := "recovered"
	if r.Surrendered {
		state = "surrendered (best finite solution returned)"
	}
	return fmt.Sprintf("guard: %s after %d incident(s), %d rollback(s)",
		state, len(r.Incidents), r.Rollbacks)
}

// Write renders the structured failure report the CLI binaries print on
// stderr: the summary line followed by one line per incident (details
// indented).
func (r *Report) Write(w io.Writer) error {
	if _, err := fmt.Fprintln(w, r.String()); err != nil {
		return err
	}
	if r == nil {
		return nil
	}
	for i := range r.Incidents {
		inc := &r.Incidents[i]
		if _, err := fmt.Fprintf(w, "  incident %d: iter %d %s (%s) -> %s\n",
			i+1, inc.Iter, inc.Health, inc.Reason, inc.Action); err != nil {
			return err
		}
		if inc.Detail != "" {
			for _, line := range strings.Split(strings.TrimRight(inc.Detail, "\n"), "\n") {
				if _, err := fmt.Fprintf(w, "      %s\n", line); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
