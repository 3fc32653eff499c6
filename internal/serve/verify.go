package serve

// Verify checks a served stream's answers against a host model of the
// tenant tables and returns how many disagree. Each tenant's model
// starts from TenantKeys and applies the stream's puts and deletes in
// arrival order. Every get whose result carries no Err must match the
// model as it stood at that get's arrival, and every delete must report
// whether the model held its key. results is a KeepResults run's
// Report.Results, indexed by Request.Seq; a request naming a tenant or
// a Seq outside the run counts as a mismatch.
//
// Arrival order is the snapshot-at-admission contract of the epoch
// protocol: the server issues a read before it handles any later
// request (batched admission flushes a tenant's reads before its next
// write), and the read sees the table as it was at issue. A run with
// resilience may shed, retry or fail a read over after later writes
// have landed, so Verify does not apply to it.
func Verify(gen GenConfig, reqs []Request, results []Result) (mismatches uint64) {
	models := make([]map[string]uint64, gen.Tenants)
	for t := range models {
		keys, values := TenantKeys(gen, t)
		models[t] = make(map[string]uint64, len(keys))
		for i, k := range keys {
			models[t][string(k)] = values[i]
		}
	}
	for i := range reqs {
		req := &reqs[i]
		if req.Tenant < 0 || req.Tenant >= len(models) || req.Seq < 0 || req.Seq >= len(results) {
			mismatches++
			continue
		}
		model, res := models[req.Tenant], results[req.Seq]
		want, held := model[string(req.Key)]
		switch req.Op {
		case OpPut:
			model[string(req.Key)] = req.Value
		case OpDel:
			if res.Found != held {
				mismatches++
			}
			delete(model, string(req.Key))
		default:
			if res.Err == nil && (res.Found != held || held && res.Value != want) {
				mismatches++
			}
		}
	}
	return mismatches
}
