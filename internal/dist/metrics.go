package dist

import "snd/internal/obs"

// metrics is the coordinator's instrumentation. Event counters are bumped
// where the event happens; table-derived gauges (fleet size, batch queue
// depths) are refreshed by an OnGather hook so /v1/metrics and the lease
// table cannot disagree.
type metrics struct {
	workers      *obs.Gauge
	sweepsActive *obs.Gauge
	batches      *obs.GaugeVec // state: pending | leased

	leases       *obs.CounterVec // mode: local | remote
	leaseExpired *obs.Counter
	requeues     *obs.Counter
	revocations  *obs.Counter
	batchFails   *obs.Counter
	cells        *obs.CounterVec // status: local | remote | duplicate | dropped
	batchSeconds *obs.Histogram
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		workers:      reg.Gauge("snd_dist_workers", "Registered workers heard from within the liveness window."),
		sweepsActive: reg.Gauge("snd_dist_sweeps_active", "Sweeps currently scheduled on the lease table."),
		batches:      reg.GaugeVec("snd_dist_batches", "Batches on the lease table by state.", "state"),
		leases:       reg.CounterVec("snd_dist_leases_granted_total", "Batch leases granted, by executor mode.", "mode"),
		leaseExpired: reg.Counter("snd_dist_lease_expired_total", "Leases reclaimed after their TTL lapsed without renewal."),
		requeues:     reg.Counter("snd_dist_requeues_total", "Batches re-queued after an expired or failed lease."),
		revocations:  reg.Counter("snd_dist_lease_revocations_total", "Leases revoked because their sweep was cancelled or ended."),
		batchFails:   reg.Counter("snd_dist_batch_failures_total", "Batches a worker reported as failed (re-queued immediately)."),
		cells:        reg.CounterVec("snd_dist_cells_total", "Sweep cells accounted for, by how.", "status"),
		batchSeconds: reg.Histogram("snd_dist_batch_seconds", "Remote batch latency from lease grant to completion.", nil),
	}
}
