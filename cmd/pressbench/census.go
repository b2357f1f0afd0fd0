package main

import (
	"time"

	"press"
	"press/internal/server"
)

// The counts a traced run reads off a deployment pressbench drove
// itself, at the boundaries of the window it timed.

// counterBase is a deployment's counters at the start of a window.
type counterBase struct {
	events, offered, succeeded, connFail, compFail uint64
	at                                             time.Duration
}

func baseOf(dep *press.Deployment) counterBase {
	return counterBase{
		events: dep.Sim.EventsFired(), offered: dep.Rec.Offered, succeeded: dep.Rec.Succeeded,
		connFail: dep.Rec.ConnectFailures, compFail: dep.Rec.CompleteFailures, at: dep.Sim.Now(),
	}
}

// census records, for a deployment pressbench drove itself, the counts
// of the window that began at base.
func census(res *result, dep *press.Deployment, base counterBase) {
	censusKernel(res, dep, base)
	res.add("workload.offered", float64(dep.Rec.Offered-base.offered))
	res.add("workload.succeeded", float64(dep.Rec.Succeeded-base.succeeded))
	res.add("workload.connect_failures", float64(dep.Rec.ConnectFailures-base.connFail))
	res.add("workload.complete_failures", float64(dep.Rec.CompleteFailures-base.compFail))
	censusServers(res, dep)
}

func censusKernel(res *result, dep *press.Deployment, base counterBase) {
	events := dep.Sim.EventsFired() - base.events
	res.add("sim.events_fired", float64(events))
	res.add("sim.queue_high_water", float64(dep.Sim.MaxQueued()))
	if offered := dep.Rec.Offered - base.offered; offered > 0 {
		res.add("sim.events_per_request", float64(events)/float64(offered))
	}
}

// censusServers records the summed server.Stats as per-request ratios
// (since each server's boot, not since a window's start: a crashed
// server's counters restart with it) and the disk reads.
func censusServers(res *result, dep *press.Deployment) {
	var total server.Stats
	var reads uint64
	for i, mach := range dep.Machines {
		if srv := dep.Server(i); srv != nil {
			addStats(&total, srv.Stats())
		}
		if arr := mach.Disks(); arr != nil {
			for _, d := range arr.Disks() {
				reads += d.Reads()
			}
		}
	}
	serverRatios(res, total)
	res.add("simdisk.reads", float64(reads))
}

func addStats(total *server.Stats, st server.Stats) {
	total.Served += st.Served
	total.LocalHits += st.LocalHits
	total.RemoteServed += st.RemoteServed
	total.DiskReads += st.DiskReads
	total.ForwardsOut += st.ForwardsOut
	total.Rerouted += st.Rerouted
}

func serverRatios(res *result, st server.Stats) {
	if st.Served > 0 {
		s := float64(st.Served)
		res.add("server.local_hit_ratio", float64(st.LocalHits)/s)
		res.add("server.remote_served_ratio", float64(st.RemoteServed)/s)
		res.add("server.disk_reads_per_request", float64(st.DiskReads)/s)
		res.add("server.forwards_per_request", float64(st.ForwardsOut)/s)
	}
	res.add("server.rerouted", float64(st.Rerouted))
}
