package qei

import (
	"fmt"

	"qei/internal/metrics"
)

// RegisterMetrics publishes the accelerator's counters under r: the
// aggregate QST/CEE/DPU statistics as qei/… metrics plus one
// cha<i>/cmp/remote_ops counter per LLC slice, fed by remoteCompare, so
// the paper's remote-comparator distribution (Sec. V-A) is visible per
// CHA. Occupancy is published fixed-point (milli-entries) so snapshots
// stay uint64 and merge deterministically.
func (a *Accelerator) RegisterMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	q := r.Scoped("qei")
	q.RegisterFunc("queries", func() uint64 { return a.stats.Queries })
	q.RegisterFunc("nonblocking", func() uint64 { return a.stats.NonBlocking })
	q.RegisterFunc("cee/transitions", func() uint64 { return a.stats.Transitions })
	q.RegisterFunc("mem/ops", func() uint64 { return a.stats.MemOps })
	q.RegisterFunc("mem/lines", func() uint64 { return a.stats.MemLines })
	q.RegisterFunc("cmp/local", func() uint64 { return a.stats.LocalCompares })
	q.RegisterFunc("cmp/remote", func() uint64 { return a.stats.RemoteCompares })
	q.RegisterFunc("cmp/bytes", func() uint64 { return a.stats.CompareBytes })
	q.RegisterFunc("dpu/hash_ops", func() uint64 { return a.stats.HashOps })
	q.RegisterFunc("dpu/alu_ops", func() uint64 { return a.stats.ALUOps })
	q.RegisterFunc("exceptions", func() uint64 { return a.stats.Exceptions })
	q.RegisterFunc("retries", func() uint64 { return a.stats.Retries })
	q.RegisterFunc("timeouts", func() uint64 { return a.stats.Timeouts })
	q.RegisterFunc("flushes", func() uint64 { return a.stats.Flushes })
	q.RegisterFunc("aborted_nb", func() uint64 { return a.stats.AbortedNB })
	q.RegisterFunc("qst/stall_cycles", func() uint64 { return a.stats.QSTStallCycles })
	q.RegisterFunc("qst/busy_entry_cycles", func() uint64 { return a.stats.BusyEntryCycles })
	q.RegisterFunc("qst/occupancy_milli", func() uint64 { return uint64(a.stats.Occupancy() * 1000) })
	q.RegisterFunc("translation_cycles", func() uint64 { return a.stats.TranslationCycles })
	q.RegisterFunc("data_access_cycles", func() uint64 { return a.stats.DataAccessCycles })
	q.RegisterFunc("batch/batches", func() uint64 { return a.stats.BatchBatches })
	q.RegisterFunc("batch/queries", func() uint64 { return a.stats.BatchQueries })
	q.RegisterFunc("batch/levels", func() uint64 { return a.stats.BatchLevels })
	q.RegisterFunc("batch/translations_saved", func() uint64 { return a.stats.BatchTranslationsSaved })
	q.RegisterFunc("batch/lines_deduped", func() uint64 { return a.stats.BatchLinesDeduped })
	q.RegisterFunc("batch/coalesced_probes", func() uint64 { return a.stats.BatchCoalescedProbes })
	q.RegisterFunc("batch/deferred", func() uint64 { return a.stats.BatchDeferred })

	for i := range a.remoteOps {
		r.RegisterFunc(fmt.Sprintf("cha%d/cmp/remote_ops", i), func() uint64 { return a.remoteOps[i] })
	}
}
