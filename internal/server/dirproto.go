package server

import (
	"press/internal/cnet"
	"press/internal/trace"
)

// dirProtocol is how caching decisions reach the nodes that route by
// them. The faithful protocol (§3) broadcasts every decision, so every
// node's directory covers every document; the sharded one tells only the
// document's home node, which then relays the misses it cannot serve.
// newServer picks one from Config.Sharded and nothing else reads the flag.
type dirProtocol interface {
	// announce publishes a caching decision. Each destination gets its
	// own pooled record — the receivers release independently, so one
	// record must never be shared across sends.
	announce(doc trace.DocID, cached bool)
	// records reports whether this node's directory keeps a peer's Hello
	// entry for doc.
	records(doc trace.DocID) bool
	// relay is the service node's chance, on a local miss, to pass the
	// forward on instead of reading its own disks; it reports whether it
	// did.
	relay(from cnet.NodeID, msg *FwdMsg) bool
	// awaits reports whether a reply arriving from a peer may complete st.
	awaits(st *reqState, from cnet.NodeID) bool
}

// sendAnnounce sends one caching decision to one node.
func (s *Server) sendAnnounce(to cnet.NodeID, doc trace.DocID, cached bool) {
	m := NewAnnounceMsg(&s.annPool)
	m.From, m.Doc, m.Cached, m.Load = s.cfg.Self, doc, cached, s.active
	s.env.Send(to, cnet.ClassIntra, PortControl, m, sizeControl)
}

type broadcastDir struct{ s *Server }

func (b broadcastDir) announce(doc trace.DocID, cached bool) {
	for _, n := range b.s.sortedView() {
		if n != b.s.cfg.Self {
			b.s.sendAnnounce(n, doc, cached)
		}
	}
}

func (broadcastDir) records(trace.DocID) bool { return true }

func (broadcastDir) relay(cnet.NodeID, *FwdMsg) bool { return false }

// The node we forwarded to serves the request itself, so only its reply
// counts; any other sender means the request was rerouted since.
func (broadcastDir) awaits(st *reqState, from cnet.NodeID) bool { return st.forwardedTo == from }

type shardedDir struct{ s *Server }

// shardOwner is the document's home node under hash placement — the
// same mod-N rule pickService's fallback uses, so in the sharded
// protocol the directory authority and the miss target coincide.
func (s *Server) shardOwner(doc trace.DocID) cnet.NodeID {
	view := s.sortedView()
	return view[int(doc)%len(view)]
}

// The home node is the directory authority for its shard. An owner's own
// decisions need no message: its local cache is consulted before the
// directory.
func (d shardedDir) announce(doc trace.DocID, cached bool) {
	if owner := d.s.shardOwner(doc); owner != d.s.cfg.Self {
		d.s.sendAnnounce(owner, doc, cached)
	}
}

// The rest of a Hello is directory state for other homes.
func (d shardedDir) records(doc trace.DocID) bool { return d.s.shardOwner(doc) == d.s.cfg.Self }

// The home node relays a first-hop miss to a known holder, stamping
// Origin so the holder replies straight to the initial node. A relayed
// forward that loses its holder dies by client timeout — the home keeps
// no per-request state for it.
func (d shardedDir) relay(from cnet.NodeID, msg *FwdMsg) bool {
	s := d.s
	if msg.Origin != cnet.None {
		return false
	}
	// The requester just missed on the document, so it is no holder.
	holder := s.leastLoadedHolder(msg.Doc, from)
	if holder == cnet.None {
		return false
	}
	s.env.Charge(costForward)
	m := NewFwdMsg(&s.fwdPool)
	m.ID, m.Doc, m.Load = msg.ID, msg.Doc, s.active
	m.Origin = from
	s.enqueue(holder, outMsg{m: m, size: sizeFwd, isReq: true})
	return true
}

// The reply may come from a holder the home node relayed to — a node
// other than the one we forwarded to — so the check relaxes to "still
// awaiting a forward at all"; None means a newer path owns the request.
func (shardedDir) awaits(st *reqState, _ cnet.NodeID) bool { return st.forwardedTo != cnet.None }
