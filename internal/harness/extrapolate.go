package harness

import (
	"time"

	"press/internal/avail"
	"press/internal/faults"
	"press/internal/template7"
)

// PredictLoads produces the "modeled from COOP" fault loads for a target
// version: the paper's left-hand bars in Figure 7 and the basis of
// Figures 1(b), 6 and 8. The inputs are the COOP campaign's measured
// templates plus capacity arithmetic; the rules below write down, per
// fault class, how each version's detection and recovery machinery is
// expected to reshape the COOP episode.
//
// Three measured COOP quantities are reused: the cluster-wedge throughput
// level (stage A), the reconfiguration transient (stage B) and the
// post-recovery transient (stage D). Everything else is derived from the
// version's traits:
//
//   - who detects the fault, and how fast (ring/membership 15 s, queue
//     monitoring ~25 s, connection resets ~1 s, FME translation ~12 s);
//   - whether the front-end stops routing to the sick node during the
//     repair window — the mon pinger is blind to application-level faults
//     and to intra-cluster isolation, which is what S-FME and C-MON fix;
//   - whether the system reintegrates by itself after repair, or waits
//     for the operator (stages E–G).
func PredictLoads(e *Engine, coop CampaignResult, v Version, o Options) []avail.FaultLoad {
	o = o.withDefaults()
	t := versionTraits(v)
	n := NewTopology(v, o).Nodes
	offered := coop.Offered
	satPerNode := e.Saturation(v, o) / float64(n)

	pc := predictContext{
		t:          t,
		n:          n,
		offered:    offered,
		satPerNode: satPerNode,
	}

	var out []avail.FaultLoad
	specs := faults.Table1(n, 2, t.fe)
	coopTpl := map[faults.Type]template7.Template{}
	for _, l := range coop.Loads {
		coopTpl[l.Spec.Type] = l.Tpl
	}
	for _, spec := range specs {
		T, ok := coopTpl[spec.Type]
		if !ok {
			// COOP has no front-end, so no measured FE-failure template;
			// synthesize the trivial one: a total outage for the MTTR.
			T = template7.Template{Label: spec.Type.String(), Normal: coop.Normal}
		}
		out = append(out, avail.FaultLoad{Spec: spec, Tpl: pc.predict(spec.Type, T)})
	}
	return out
}

// Detection-latency constants used by the predictions (§5's parameters).
const (
	predictRingDetect   = 15 * time.Second // 3 missed 5 s heartbeats (ring or membership)
	predictQMonDetect   = 25 * time.Second // send-queue fill to the failure threshold
	predictConnDetect   = 1 * time.Second  // TCP reset propagation (app crash)
	predictFMETranslate = 12 * time.Second // two 5 s probes + action
	// flapPenalty discounts stage-C throughput in the MQ configuration
	// for the faults whose views diverge: queue monitoring keeps
	// excluding the sick node and the membership service keeps re-adding
	// it, so a slice of requests is repeatedly routed into the fault
	// (§4.4).
	flapPenalty = 0.90
	// isolatedServeShare is the fraction of its request share an
	// isolated-but-alive singleton still manages to serve (it runs at
	// independent-server throughput against a cooperative-sized share).
	isolatedServeShare = 0.5
)

type predictContext struct {
	t          traits
	n          int
	offered    float64
	satPerNode float64
}

// servedFrac estimates the fraction of offered load served with `down`
// nodes out of rotation and the rest healthy.
func (pc predictContext) servedFrac(down int) float64 {
	alive := pc.n - down
	capacity := float64(alive) * pc.satPerNode * 0.95 // cache-reshuffle slack
	frac := capacity / pc.offered
	if !pc.t.fe {
		// Round-robin DNS keeps sending the down nodes' share.
		if dns := 1 - float64(down)/float64(pc.n); dns < frac {
			frac = dns
		}
	}
	if frac > 1 {
		frac = 1
	}
	return frac
}

// degraded returns the stage-C service fraction with one node sick, given
// whether the front-end actually routes around it:
//
//	maskKind "masked":   the monitor sees the fault; full rerouting.
//	maskKind "dead":     the sick node's share is routed into a dead app.
//	maskKind "isolated": the share goes to a splintered singleton that
//	                     still serves part of it.
func (pc predictContext) degraded(maskKind string) float64 {
	base := pc.servedFrac(1)
	if !pc.t.fe {
		return base // DNS losses are already in servedFrac
	}
	share := 1 / float64(pc.n)
	switch maskKind {
	case "masked":
		return base
	case "dead":
		return clampFrac(base - share)
	case "isolated":
		return clampFrac(base - share*(1-isolatedServeShare))
	}
	return base
}

func clampFrac(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// feSees reports whether the front-end's monitor detects the node-level
// consequence of the fault, under the version's monitoring stack.
func (pc predictContext) feSees(f faults.Type, nodeOffline bool) bool {
	if !pc.t.fe {
		return false
	}
	if nodeOffline {
		return true // pings fail
	}
	switch f {
	case faults.NodeCrash, faults.NodeFreeze:
		return true // pings fail
	case faults.AppCrash, faults.AppHang, faults.SCSITimeout:
		return pc.t.cmon // only connection monitoring sees app-level faults
	case faults.LinkDown:
		return pc.t.sfme // only the cooperation-set monitor sees isolation
	}
	return false
}

func (pc predictContext) predict(f faults.Type, T template7.Template) template7.Template {
	t := pc.t
	w0 := T.Normal
	if w0 <= 0 {
		w0 = pc.offered
	}
	rel := func(s template7.Stage) float64 {
		if w0 == 0 {
			return 0
		}
		return clampFrac(T.Throughputs[s] / w0)
	}

	p := template7.Template{Label: f.String(), Normal: pc.offered}
	set := func(s template7.Stage, d time.Duration, frac float64) {
		p.Durations[s] = d
		p.Throughputs[s] = clampFrac(frac) * pc.offered
	}
	operatorTail := func(level float64) {
		p.NeedsReset = true
		set(template7.StageE, 0, level)
		set(template7.StageF, 30*time.Second, rel(template7.StageA))
		set(template7.StageG, 60*time.Second, 0.8)
	}

	wedge := rel(template7.StageA) // cluster-wide stall level during detection
	bDur := T.Durations[template7.StageB]
	bLevel := rel(template7.StageB)
	dDur := T.Durations[template7.StageD]

	switch f {
	case faults.NodeCrash, faults.NodeFreeze, faults.LinkDown:
		detect := predictRingDetect
		if !t.memb && t.qmon && !t.ring {
			detect = predictQMonDetect
		}
		set(template7.StageA, detect, wedge)
		set(template7.StageB, bDur, bLevel)
		cKind := "masked"
		if f == faults.LinkDown && !pc.feSees(f, false) {
			cKind = "isolated" // FE keeps feeding the splintered singleton
		}
		set(template7.StageC, 0, pc.degraded(cKind))
		set(template7.StageD, dDur, pc.degraded(cKind))
		// Restarted processes rejoin in every version, and the membership
		// merge repairs splinters; everything else waits for the operator.
		// During the wait the repaired machine answers pings again, so the
		// front-end unmasks it even though it is still excluded from the
		// cooperation set: its share is served at splintered-singleton
		// quality until the reset.
		if f != faults.NodeCrash && !t.memb {
			eKind := "isolated"
			if t.sfme {
				eKind = "masked"
			}
			operatorTail(pc.degraded(eKind))
		}
	case faults.SCSITimeout:
		switch {
		case t.fme:
			// Translated to a node-offline within a couple of probes; the
			// machine crash is visible to the pinger, so the node is
			// masked for the whole repair.
			set(template7.StageA, predictFMETranslate, wedge)
			set(template7.StageB, bDur, bLevel)
			set(template7.StageC, 0, pc.degraded("masked"))
			set(template7.StageD, dDur, pc.degraded("masked"))
		case t.qmon:
			// Queue monitoring unwedges the cluster, but the stalled node
			// keeps taking (and losing) its share unless C-MON sees it,
			// and nothing re-admits it after repair unless membership is
			// also present — which instead keeps flapping it in (§4.4).
			set(template7.StageA, predictQMonDetect, wedge)
			set(template7.StageB, bDur, bLevel)
			kind := "dead"
			if pc.feSees(f, false) {
				kind = "masked"
			}
			c := pc.degraded(kind)
			if t.memb {
				c *= flapPenalty
			}
			set(template7.StageC, 0, c)
			set(template7.StageD, dDur, pc.degraded(kind))
			if !t.memb {
				operatorTail(c)
			}
		case t.memb:
			// The membership daemon sees nothing wrong: the wedged server
			// stalls the whole cluster for the entire repair time.
			set(template7.StageA, 0, wedge)
			set(template7.StageC, 0, wedge)
			set(template7.StageD, dDur, pc.servedFrac(0))
		default:
			// Base COOP / FE-X: the ring detects the silent main thread
			// (a little after the wedge develops); splinter until reset.
			set(template7.StageA, predictRingDetect+10*time.Second, wedge)
			set(template7.StageB, bDur, bLevel)
			set(template7.StageC, 0, pc.degraded("dead"))
			set(template7.StageD, dDur, pc.degraded("dead"))
			operatorTail(pc.degraded("dead"))
		}
	case faults.AppCrash:
		set(template7.StageA, predictConnDetect, rel(template7.StageA))
		set(template7.StageB, bDur, bLevel)
		kind := "dead"
		if pc.feSees(f, false) {
			kind = "masked"
		}
		set(template7.StageC, 0, pc.degraded(kind))
		set(template7.StageD, dDur, pc.degraded(kind))
	case faults.AppHang:
		switch {
		case t.fme:
			// Hang → crash-restart: the fault is gone once the process
			// restarts, well inside the MTTR.
			set(template7.StageA, predictFMETranslate, wedge)
			set(template7.StageB, bDur, bLevel)
			set(template7.StageC, 0, 0.98)
			set(template7.StageD, dDur, 0.98)
		case t.qmon:
			set(template7.StageA, predictQMonDetect, wedge)
			set(template7.StageB, bDur, bLevel)
			kind := "dead"
			if pc.feSees(f, false) {
				kind = "masked"
			}
			c := pc.degraded(kind)
			if t.memb {
				c *= flapPenalty
			}
			set(template7.StageC, 0, c)
			set(template7.StageD, dDur, pc.degraded(kind))
			if !t.memb {
				operatorTail(c)
			}
		case t.memb:
			// Membership sees a healthy daemon; the hung application
			// wedges its peers for the whole hang.
			set(template7.StageA, 0, wedge)
			set(template7.StageC, 0, wedge)
			set(template7.StageD, dDur, pc.servedFrac(0))
		default:
			set(template7.StageA, predictRingDetect, wedge)
			set(template7.StageB, bDur, bLevel)
			set(template7.StageC, 0, pc.degraded("dead"))
			set(template7.StageD, dDur, pc.degraded("dead"))
			operatorTail(pc.degraded("dead"))
		}
	case faults.SwitchDown:
		// Intra-cluster connectivity gone: the cluster splinters into
		// singletons, each serving at independent-server rates.
		splinter := 0.35
		set(template7.StageA, predictRingDetect, wedge)
		set(template7.StageB, bDur, bLevel)
		set(template7.StageC, 0, splinter)
		set(template7.StageD, dDur, splinter)
		if !t.memb {
			operatorTail(splinter)
		}
	case faults.FrontendFailure:
		// Single front-end: a total outage for the repair time.
		set(template7.StageA, 0, 0)
		set(template7.StageC, 0, 0)
		set(template7.StageD, 10*time.Second, 0.9)
	}
	return p
}

// PredictResult runs the phase-2 model over predicted loads.
func PredictResult(e *Engine, coop CampaignResult, v Version, o Options, env avail.Env) (avail.Result, error) {
	loads := PredictLoads(e, coop, v, o)
	return avail.Availability(coop.Offered, coop.Offered, loads, env)
}
