// Automatic failover: the lease watchdog, election rounds, the primary's
// demotion guard, retarget/demote transitions, cluster membership and
// its PEERS persistence, POSITION probes, and the semi-synchronous
// commit ack machinery.
//
// One role-agnostic loop per server (started by Serve when
// -election-timeout is set):
//
//   - As a replica, it watches the upstream lease — the newest frame
//     received across all store streams. On expiry it probes every
//     cluster member's POSITION and feeds the answers to
//     repl.DecideElection; the deterministic winner promotes itself,
//     losers retarget to the winner, and nobody acts without a
//     reachable majority.
//   - As a primary, it periodically probes the members for a primary
//     claim on a newer epoch (or the same epoch with a lower address —
//     the double-primary tiebreak) and demotes itself to that node's
//     replica when found. This is how a kill -9'd ex-primary rejoins
//     the cluster as a replica with zero operator commands: it boots as
//     a primary of the old timeline, finds the new one, and follows it.
//
// The loop lives outside replWg: it calls Promote and retargetTo, which
// wait for the applier goroutines in replWg to exit.
package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"xmlordb/internal/repl"
	"xmlordb/internal/wal"
	"xmlordb/internal/wire"
)

// advertiseAddr is the address peers dial to reach this server: the
// configured Advertise, falling back to the bound listener address.
// Empty before Serve binds.
func (s *Server) advertiseAddr() string {
	if s.cfg.Advertise != "" {
		return s.cfg.Advertise
	}
	if a := s.Addr(); a != nil {
		return a.String()
	}
	return ""
}

// addMember records an election-eligible cluster member (a replica that
// announced its advertised address in its REPLICATE handshake).
func (s *Server) addMember(addr string) {
	s.mu.Lock()
	_, known := s.members[addr]
	if !known {
		s.members[addr] = struct{}{}
	}
	s.mu.Unlock()
	if !known {
		s.savePeers()
	}
}

// memberList is the cluster member list: the known members plus, on a
// primary, its own advertised address. Sorted for determinism.
func (s *Server) memberList() []string {
	s.mu.Lock()
	replica := s.replica
	out := make([]string, 0, len(s.members)+1)
	for a := range s.members {
		out = append(out, a)
	}
	s.mu.Unlock()
	if !replica {
		if self := s.advertiseAddr(); self != "" {
			found := false
			for _, a := range out {
				found = found || a == self
			}
			if !found {
				out = append(out, self)
			}
		}
	}
	sort.Strings(out)
	return out
}

// peersFile is the on-disk shape of <SnapshotDir>/PEERS: the last known
// primary and member list, persisted so a cold-restarted replica can
// hold an election against peers it has never heard a heartbeat from.
type peersFile struct {
	Primary string   `json:"primary"`
	Members []string `json:"members"`
}

func (s *Server) peersPath() string {
	if s.cfg.SnapshotDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.SnapshotDir, "PEERS")
}

func (s *Server) savePeers() {
	path := s.peersPath()
	if path == "" {
		return
	}
	s.mu.Lock()
	pf := peersFile{Primary: s.knownPrimary, Members: make([]string, 0, len(s.members))}
	for a := range s.members {
		pf.Members = append(pf.Members, a)
	}
	s.mu.Unlock()
	sort.Strings(pf.Members)
	b, err := json.Marshal(pf)
	if err != nil {
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		s.cfg.logf("failover: persisting peers: %v", err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		s.cfg.logf("failover: persisting peers: %v", err)
	}
}

func (s *Server) loadPeers() {
	path := s.peersPath()
	if path == "" {
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return
	}
	var pf peersFile
	if json.Unmarshal(b, &pf) != nil {
		return
	}
	s.mu.Lock()
	for _, a := range pf.Members {
		s.members[a] = struct{}{}
	}
	if s.knownPrimary == "" {
		s.knownPrimary = pf.Primary
	}
	s.mu.Unlock()
}

// onLeaseMeta ingests a heartbeat's lease metadata on the replica side:
// the primary's identity and member list are adopted (and persisted),
// and a replica that learns of a primary other than its upstream
// verifies the claim and retargets — this is how election losers
// converge on the winner. A claim that does not verify (the named
// primary is down) leaves the replica on its upstream, still
// redirecting writes to the named primary.
func (s *Server) onLeaseMeta(primary string, peers []string) {
	s.mu.Lock()
	changed := false
	if primary != "" && s.knownPrimary != primary {
		s.knownPrimary = primary
		changed = true
	}
	// Union-merge, never replace: a relaying upstream (a node with a
	// partial view during an interregnum) may know fewer members than we
	// do, and adopting its list wholesale would erase quorum knowledge
	// that elections depend on.
	for _, p := range peers {
		if _, ok := s.members[p]; !ok {
			s.members[p] = struct{}{}
			changed = true
		}
	}
	replica, up := s.replica, s.upstream
	s.mu.Unlock()
	if changed {
		s.savePeers()
	}
	if replica && primary != "" && primary != up && primary != s.advertiseAddr() {
		go s.maybeRetarget(primary)
	}
}

// maybeRetarget verifies that target really serves as primary, then
// retargets replication to it. The retargeting flag collapses the bursts
// of heartbeats that all report the same new primary.
func (s *Server) maybeRetarget(target string) {
	s.mu.Lock()
	if s.retargeting || !s.replica {
		s.mu.Unlock()
		return
	}
	s.retargeting = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.retargeting = false
		s.mu.Unlock()
	}()
	p, err := queryPosition(target, s.probeTimeout(), s.advertiseAddr())
	if err != nil || p.Role != RolePrimary {
		return
	}
	s.retargetTo(target)
}

// retargetTo points a replica's replication at a new upstream: the
// current generation stops, the upstream flips, and a fresh generation
// starts. No-op unless still a replica with a different upstream.
func (s *Server) retargetTo(addr string) {
	if addr == "" || addr == s.advertiseAddr() {
		return
	}
	s.roleMu.Lock()
	defer s.roleMu.Unlock()
	s.mu.Lock()
	if !s.replica || s.upstream == addr {
		s.mu.Unlock()
		return
	}
	old := s.upstream
	s.mu.Unlock()
	s.cfg.logf("failover: retargeting replication from %s to %s", old, addr)
	s.stopReplicationLocked()
	s.mu.Lock()
	s.upstream = addr
	s.knownPrimary = addr
	s.mu.Unlock()
	s.savePeers()
	s.startReplicationLocked()
}

// demoteTo turns a primary into a replica of addr — the stale-ex-primary
// path: a revived old primary finds the new timeline and follows it.
// Its diverged WAL tail (if any) is re-seeded by the feeder's snapshot
// transfer; anything it acked before dying that the new primary holds
// survives, anything never replicated is on the old timeline only and
// is surrendered (semi-sync acks exist to make that set empty).
func (s *Server) demoteTo(addr string) {
	if s.cfg.SnapshotDir == "" {
		s.cfg.logf("failover: cannot demote without a data directory")
		return
	}
	s.roleMu.Lock()
	defer s.roleMu.Unlock()
	s.mu.Lock()
	if s.replica {
		s.mu.Unlock()
		return
	}
	s.replica = true
	s.upstream = addr
	s.knownPrimary = addr
	s.mu.Unlock()
	s.cfg.logf("failover: demoting to replica of %s (found a primary on a newer timeline)", addr)
	s.savePeers()
	s.stopReplicationLocked() // clears any stale generation bookkeeping
	s.startReplicationLocked()
}

// startFailover launches the failover loop (idempotent).
func (s *Server) startFailover() {
	s.mu.Lock()
	if s.failStop != nil {
		s.mu.Unlock()
		return
	}
	s.failStop = make(chan struct{})
	s.failDone = make(chan struct{})
	s.leaseAt = time.Now()
	s.mu.Unlock()
	s.loadPeers()
	if self := s.advertiseAddr(); self != "" && !s.isReadOnly() {
		s.mu.Lock()
		s.members[self] = struct{}{}
		s.mu.Unlock()
	}
	go s.failoverLoop()
}

func (s *Server) stopFailover() {
	s.mu.Lock()
	stop, done := s.failStop, s.failDone
	s.failStop = nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// leaseLastContact is the newest lease renewal: the replication
// generation's start as a floor (one grace term per retarget), advanced
// only by LEASE-BEARING frames — frames whose sender's chain roots at a
// live primary. Frames relayed by a headless replica do not count, so a
// follow-cycle formed during an interregnum (A elects to follow B while
// B elects to follow A) cannot keep its own leases alive: both expire
// again, the re-run election sees tied positions, and the deterministic
// address tiebreak promotes exactly one of them.
func (s *Server) leaseLastContact() time.Time {
	s.mu.Lock()
	last := s.leaseAt
	appliers := make([]*storeApplier, 0, len(s.appliers))
	for _, a := range s.appliers {
		appliers = append(appliers, a)
	}
	s.mu.Unlock()
	for _, a := range appliers {
		if t := a.status.LastLease(); t.After(last) {
			last = t
		}
	}
	return last
}

// leaseRooted reports whether this node's replication chain roots at a
// live primary: trivially true on a primary; true on a replica only
// while a lease-bearing frame arrived within the election timeout. The
// feeders this node serves mark their frames lease-bearing only when
// this holds, which is what lets freshness cascade down a healthy chain
// while never originating at a replica.
func (s *Server) leaseRooted() bool {
	if !s.isReadOnly() {
		return true
	}
	if s.cfg.ElectionTimeout <= 0 {
		// Automatic failover is off: plain replication keeps the old
		// semantics where any relayed frame counts.
		return true
	}
	s.mu.Lock()
	appliers := make([]*storeApplier, 0, len(s.appliers))
	for _, a := range s.appliers {
		appliers = append(appliers, a)
	}
	s.mu.Unlock()
	for _, a := range appliers {
		if t := a.status.LastLease(); !t.IsZero() && time.Since(t) < s.cfg.ElectionTimeout {
			return true
		}
	}
	return false
}

func (s *Server) failoverLoop() {
	s.mu.Lock()
	stop, done := s.failStop, s.failDone
	s.mu.Unlock()
	defer close(done)
	timeout := s.cfg.ElectionTimeout
	t := time.NewTicker(s.cfg.leaseInterval())
	defer t.Stop()
	var lastGuard time.Time
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if s.Role() == RoleReplica {
			if time.Since(s.leaseLastContact()) < timeout {
				continue
			}
			s.runElection()
		} else {
			// The demotion guard probes at election-timeout cadence: it is
			// a steady-state safety net, not a hot path.
			if time.Since(lastGuard) < timeout {
				continue
			}
			lastGuard = time.Now()
			s.demotionGuard()
		}
	}
}

// runElection holds one election round after a lease expiry.
func (s *Server) runElection() {
	self := s.selfPosition()
	if self.Addr == "" {
		return // not addressable: cannot stand or be followed
	}
	members := s.electionMembers(self.Addr)
	peers := s.probePeers(members, self.Addr)
	out := repl.DecideElection(self, members, peers)
	switch out.Action {
	case repl.ElectPromote:
		s.cfg.logf("failover: lease expired; won election (reachable %d/%d, epoch %d, durable %d) — promoting",
			out.Reachable, len(members), self.Epoch, self.Durable)
		if _, err := s.Promote(); err != nil {
			s.cfg.logf("failover: promote: %v", err)
		}
	case repl.ElectFollow:
		if out.Target == s.currentUpstream() {
			// Already pointed at the winner — it may still be mid-promotion
			// or our stream is mid-reconnect. Grant one more lease term
			// instead of re-running the election every tick.
			s.renewLease()
			return
		}
		s.cfg.logf("failover: lease expired; following %s", out.Target)
		s.retargetTo(out.Target)
	case repl.ElectWait:
		s.cfg.logf("failover: lease expired but only %d/%d members reachable (quorum %d); waiting",
			out.Reachable, len(members), out.Quorum)
	}
}

func (s *Server) renewLease() {
	s.mu.Lock()
	s.leaseAt = time.Now()
	s.mu.Unlock()
}

// demotionGuard looks for a primary claim that outranks this one.
func (s *Server) demotionGuard() {
	self := s.selfPosition()
	if self.Addr == "" {
		return
	}
	members := s.electionMembers(self.Addr)
	for _, p := range s.probePeers(members, self.Addr) {
		if repl.ShouldDemote(self, p) {
			s.cfg.logf("failover: %s claims primary on epoch %d (self epoch %d); yielding",
				p.Addr, p.Epoch, self.Epoch)
			s.demoteTo(p.Addr)
			return
		}
	}
}

// electionMembers is the member list for quorum arithmetic: the known
// members plus self and (on a replica) the current upstream — the
// possibly-dead primary counts toward the denominator, which is exactly
// what stops a lone replica from electing itself after losing its link.
func (s *Server) electionMembers(self string) []string {
	set := map[string]struct{}{}
	for _, m := range s.memberList() {
		set[m] = struct{}{}
	}
	if self != "" {
		set[self] = struct{}{}
	}
	if up := s.currentUpstream(); up != "" && s.isReadOnly() {
		set[up] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// probeTimeout bounds one POSITION probe.
func (s *Server) probeTimeout() time.Duration {
	d := 2 * s.cfg.leaseInterval()
	if d < 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// probePeers queries every member but self concurrently; unreachable
// members are simply absent from the result.
func (s *Server) probePeers(members []string, self string) []repl.PeerPosition {
	var (
		mu  sync.Mutex
		out []repl.PeerPosition
		wg  sync.WaitGroup
	)
	for _, m := range members {
		if m == self {
			continue
		}
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			p, err := queryPosition(addr, s.probeTimeout(), self)
			if err != nil {
				return
			}
			mu.Lock()
			out = append(out, p)
			mu.Unlock()
		}(m)
	}
	wg.Wait()
	return out
}

// queryPosition performs a one-shot POSITION request. from, when
// non-empty, is the prober's own advertised address: probes announce
// their sender so that an election candidate probing a peer with a
// partial member view teaches that peer it exists. Without this, a
// replica that never heard a full member list before the primary died
// can never see a quorum, and the cluster stays headless.
func queryPosition(addr string, timeout time.Duration, from string) (repl.PeerPosition, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return repl.PeerPosition{}, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout + time.Second))
	if err := wire.WriteFrame(conn, &wire.Request{Verb: wire.VerbPosition, Addr: from}); err != nil {
		return repl.PeerPosition{}, err
	}
	br := bufio.NewReader(conn)
	line, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
	if err != nil {
		return repl.PeerPosition{}, err
	}
	resp, err := wire.DecodeResponse(line)
	if err != nil {
		return repl.PeerPosition{}, err
	}
	if err := resp.Err(); err != nil {
		return repl.PeerPosition{}, err
	}
	return repl.PeerPosition{Addr: addr, Role: resp.Role, Epoch: resp.Epoch,
		Durable: resp.LSN, Primary: resp.Primary}, nil
}

// localPosition is this node's election coordinates: highest store
// epoch, total durable LSN across stores.
func (s *Server) localPosition() (epoch, durable uint64) {
	syncNever := false
	if opts, err := s.cfg.durableOptions(); err == nil {
		syncNever = opts.Sync == wal.SyncNever
	}
	s.mu.Lock()
	hosted := make([]*hostedStore, 0, len(s.storeOrder))
	for _, k := range s.storeOrder {
		hosted = append(hosted, s.stores[k])
	}
	s.mu.Unlock()
	for _, hs := range hosted {
		hs.mu.RLock()
		if e := hs.store.Epoch(); e > epoch {
			epoch = e
		}
		if log := hs.store.WAL(); log != nil {
			if syncNever {
				durable += log.LastLSN()
			} else {
				durable += log.SyncedLSN()
			}
		}
		hs.mu.RUnlock()
	}
	return epoch, durable
}

func (s *Server) selfPosition() repl.PeerPosition {
	epoch, durable := s.localPosition()
	return repl.PeerPosition{Addr: s.advertiseAddr(), Role: s.Role(),
		Epoch: epoch, Durable: durable, Primary: s.currentPrimaryAddr()}
}

// observeProber records a POSITION prober's advertised address as a
// cluster member. Probes only carry an address when their sender is
// election-eligible, so this is the probe-time counterpart of handshake
// membership: it heals asymmetric member views during an interregnum.
func (s *Server) observeProber(addr string) {
	if addr == "" || s.cfg.ElectionTimeout <= 0 || addr == s.advertiseAddr() {
		return
	}
	s.addMember(addr)
}

// positionResp answers the POSITION verb. Lock-light by design: an
// election probing this node must get an answer even while writes and
// reads contend.
func (s *Server) positionResp() *wire.Response {
	epoch, durable := s.localPosition()
	return &wire.Response{OK: true, Role: s.Role(), Epoch: epoch, LSN: durable,
		Primary: s.currentPrimaryAddr(), Peers: s.memberList()}
}

// --- semi-synchronous commit acks ---

// broadcastAck wakes every waitReplicated waiter (close-and-remake).
func (s *Server) broadcastAck() {
	s.ackMu.Lock()
	close(s.ackCh)
	s.ackCh = make(chan struct{})
	s.ackMu.Unlock()
}

func (s *Server) ackWait() <-chan struct{} {
	s.ackMu.Lock()
	defer s.ackMu.Unlock()
	return s.ackCh
}

// ackedCount counts connected replicas of store whose durable ack has
// reached lsn.
func (s *Server) ackedCount(store string, lsn uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for e := range s.feeds {
		if strings.EqualFold(e.store, store) && e.status.AckedLSN() >= lsn {
			n++
		}
	}
	return n
}

// waitReplicated blocks until need replicas of store have durably acked
// lsn, the semi-sync timeout expires, or the server shuts down. The
// double-check between ackedCount and ackWait closes the missed-wakeup
// window: the channel is fetched first, then the count re-checked, so an
// ack landing in between is never slept through.
func (s *Server) waitReplicated(store string, lsn uint64, need int) error {
	timer := time.NewTimer(s.cfg.syncTimeout())
	defer timer.Stop()
	for {
		ch := s.ackWait()
		if s.ackedCount(store, lsn) >= need {
			return nil
		}
		select {
		case <-ch:
		case <-timer.C:
			got := s.ackedCount(store, lsn)
			if got >= need {
				return nil
			}
			return fmt.Errorf("semi-sync: %d/%d replicas acked lsn %d within %v; the write is locally durable and will replicate (at-least-once)",
				got, need, lsn, s.cfg.syncTimeout())
		case <-s.feedStop:
			return fmt.Errorf("semi-sync: server shutting down; the write is locally durable")
		}
	}
}
