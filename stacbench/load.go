package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"stac/internal/model"
	"stac/internal/proof"
	"stac/internal/server"
)

// countingConn counts the bytes an agent writes and reads.
type countingConn struct {
	net.Conn
	written, read int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.written += int64(n)
	return n, err
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.read += int64(n)
	return n, err
}

// grantRecord is one granted access, kept for checking after the
// measured phase so the check costs the agents nothing.
type grantRecord struct {
	idx    int // access index in the agent's stream
	access model.Access
	data   []byte
	proof  proof.Proof
}

// problem is one failed check. idx is the access index in the agent's
// stream, or -1 when the problem is not tied to one access.
type problem struct {
	idx int
	msg string
}

// failures counts the accesses with at least one problem, plus the
// problems tied to no access.
func failures(ps []problem) int {
	seen := map[int]bool{}
	n := 0
	for _, p := range ps {
		if p.idx < 0 || !seen[p.idx] {
			n++
		}
		seen[p.idx] = true
	}
	return n
}

// samples are the timings one agent took in one round of the
// measured phase.
type samples struct {
	access, arrive, dial []float64 // microseconds
	tours                []float64 // milliseconds
	reqBytes, replyBytes int64
}

// agentRun is what one agent observed over TCP.
type agentRun struct {
	verdicts []verdict // every access, warm-up included
	grants   []grantRecord
	problems []problem
	rounds   []samples // measured phase, one entry per round
}

// round is one slice of the measured phase: both agents start it
// together and it ends when the slower one finishes its tours.
type round struct {
	wall                time.Duration
	daemonCPU, agentCPU time.Duration
	// steal is the share of the machine's CPU time the hypervisor gave
	// to other guests during the round.
	steal   float64
	samples samples // both agents merged
}

// loadRun is the whole TCP run.
type loadRun struct {
	agents    []*agentRun
	rounds    []round
	daemonRSS int64
	// steal is the share of the machine's CPU time the hypervisor
	// gave to others during the measured phase: host load this run
	// could not see otherwise.
	steal float64
}

// stealShare is the steal share between two /proc/stat readings.
func stealShare(steal0, total0, steal1, total1 int64) float64 {
	if total1 <= total0 {
		return 0
	}
	return float64(steal1-steal0) / float64(total1-total0)
}

// measuredAccesses is the number of accesses timed in all rounds.
func (lr *loadRun) measuredAccesses() int {
	n := 0
	for _, r := range lr.rounds {
		n += len(r.samples.access)
	}
	return n
}

// ioTimeout bounds one round trip; a healthy loopback round trip takes
// well under a millisecond.
const ioTimeout = 30 * time.Second

// barriers line the two agents up at the start of every round. Agent
// arrivals at barrier k are counted by ready[k]; release[k] lets them
// go. The last barrier marks the end of the measured phase and
// releases nobody.
type barriers struct {
	ready   []sync.WaitGroup
	release []chan struct{}
}

func newBarriers(rounds int) *barriers {
	b := &barriers{ready: make([]sync.WaitGroup, rounds+1), release: make([]chan struct{}, rounds)}
	for k := range b.ready {
		b.ready[k].Add(numAgents)
	}
	for k := range b.release {
		b.release[k] = make(chan struct{})
	}
	return b
}

// arrive blocks an agent at barrier k until the coordinator releases
// it (the last barrier only records the arrival).
func (b *barriers) arrive(k int) {
	b.ready[k].Done()
	if k < len(b.release) {
		<-b.release[k]
	}
}

// runLoad drives stacd with two closed-loop agents: each waits for a
// reply before sending its next request. Every hop dials, authenticates
// with a fresh client fed the carried proofs, performs its reads and
// departs. After the warm-up tours the measured phase runs in rounds
// of equal work; both agents start each round together, and stacd's
// and this process's CPU times are read from /proc at the boundaries
// only.
func runLoad(d *daemon, in inputs, rounds int) (*loadRun, error) {
	lr := &loadRun{agents: make([]*agentRun, numAgents), rounds: make([]round, rounds)}
	bar := newBarriers(rounds)
	var done sync.WaitGroup
	var aborted atomic.Bool
	done.Add(numAgents)
	for a := range in.streams {
		ar := &agentRun{rounds: make([]samples, rounds)}
		lr.agents[a] = ar
		go func(st stream) {
			defer done.Done()
			runAgent(d, in, st, ar, bar, &aborted)
		}(in.streams[a])
	}
	pid := d.cmd.Process.Pid
	var readErr error
	var stamp time.Time
	var cpu, self time.Duration
	var steal, total, firstSteal, firstTotal int64
	for k := 0; k <= rounds; k++ {
		bar.ready[k].Wait()
		now := time.Now()
		c, err := procCPU(pid)
		if err != nil && readErr == nil {
			readErr = err
		}
		s := selfCPU()
		st, tot := hostSteal()
		if k > 0 {
			lr.rounds[k-1] = round{wall: now.Sub(stamp), daemonCPU: c - cpu, agentCPU: s - self, steal: stealShare(steal, total, st, tot)}
		} else {
			firstSteal, firstTotal = st, tot
		}
		stamp, cpu, self, steal, total = now, c, s, st, tot
		if k < rounds {
			close(bar.release[k])
		}
	}
	lr.steal = stealShare(firstSteal, firstTotal, steal, total)
	done.Wait()
	if readErr != nil {
		return nil, readErr
	}
	var err error
	if lr.daemonRSS, err = peakRSS(pid); err != nil {
		return nil, err
	}
	for k := range lr.rounds {
		m := &lr.rounds[k].samples
		for _, ar := range lr.agents {
			s := ar.rounds[k]
			m.access = append(m.access, s.access...)
			m.arrive = append(m.arrive, s.arrive...)
			m.dial = append(m.dial, s.dial...)
			m.tours = append(m.tours, s.tours...)
			m.reqBytes += s.reqBytes
			m.replyBytes += s.replyBytes
		}
	}
	return lr, nil
}

func runAgent(d *daemon, in inputs, st stream, ar *agentRun, bar *barriers, aborted *atomic.Bool) {
	var carried []proof.Proof
	seq := 0
	report := func(idx int, format string, args ...any) {
		ar.problems = append(ar.problems, problem{idx, fmt.Sprintf("agent %d: ", st.agent) + fmt.Sprintf(format, args...)})
	}
	perRound := (len(st.tours) - in.spec.warmupTours) / len(ar.rounds)
	var cur *samples // nil during warm-up
	for t, tr := range st.tours {
		if m := t - in.spec.warmupTours; m >= 0 && m%perRound == 0 {
			bar.arrive(m / perRound)
			cur = &ar.rounds[m/perRound]
		}
		if aborted.Load() {
			continue
		}
		tourStart := time.Now()
		carried = in.spec.startTour(carried)
		cred, ok := d.creds[tr.object]
		if !ok {
			report(-1, "stacd issued no credential for %s", tr.object)
			aborted.Store(true)
			continue
		}
		for _, hop := range tr.hops {
			c0 := time.Now()
			raw, err := net.Dial("tcp", d.addrs[hop.Server])
			c1 := time.Now()
			if err != nil {
				report(-1, "dial %s: %v", hop.Server, err)
				aborted.Store(true)
				break
			}
			conn := &countingConn{Conn: raw}
			cl := server.NewClient(conn, server.ClientConfig{IOTimeout: ioTimeout})
			cl.ImportProofs(carried)
			a0 := time.Now()
			err = cl.Auth(cred)
			a1 := time.Now()
			if err != nil {
				report(-1, "auth %s at %s: %v", tr.object, hop.Server, err)
				aborted.Store(true)
				_ = cl.Close()
				break
			}
			if cur != nil {
				cur.dial = append(cur.dial, micros(c1.Sub(c0)))
				cur.arrive = append(cur.arrive, micros(c1.Sub(c0)+a1.Sub(a0)))
			}
			for _, r := range hop.Resources {
				seq++
				held := len(cl.Proofs())
				w0, r0 := conn.written, conn.read
				q0 := time.Now()
				data, err := cl.AccessID(fmt.Sprintf("a%d-%d", st.agent, seq), model.OpRead, r, st.program, nil)
				lat := time.Since(q0)
				v := classify(err)
				idx := len(ar.verdicts)
				ar.verdicts = append(ar.verdicts, v)
				if cur != nil {
					cur.access = append(cur.access, micros(lat))
					cur.reqBytes += conn.written - w0
					cur.replyBytes += conn.read - r0
				}
				switch v {
				case grant:
					ps := cl.Proofs()
					if len(ps) != held+1 {
						report(idx, "grant of %s at %s returned no new proof", r, hop.Server)
						continue
					}
					ar.grants = append(ar.grants, grantRecord{
						idx:    idx,
						access: model.Access{Object: tr.object, Op: model.OpRead, Resource: r, Server: hop.Server},
						data:   data, proof: ps[held],
					})
				case failed:
					var se *server.ServerError
					if errors.As(err, &se) {
						report(idx, "reject of %s at %s: %v", r, hop.Server, err)
					} else {
						report(idx, "transport error on %s at %s: %v", r, hop.Server, err)
						aborted.Store(true)
					}
				}
				if aborted.Load() {
					break
				}
			}
			if err := cl.Depart(); err != nil && !aborted.Load() {
				report(-1, "depart from %s: %v", hop.Server, err)
			}
			_ = cl.Close()
			carried = cl.Proofs()
			if aborted.Load() {
				break
			}
		}
		if cur != nil && !aborted.Load() {
			cur.tours = append(cur.tours, float64(time.Since(tourStart))/float64(time.Millisecond))
		}
	}
	bar.arrive(len(ar.rounds))
}

// checkGrants verifies every granted access after the run: the proof
// must carry a valid signature under the coalition key and name the
// requested access, and the data must equal the hosted content.
func checkGrants(agent int, grants []grantRecord, in inputs, signer *proof.Signer) []problem {
	var bad []problem
	for _, g := range grants {
		if err := signer.Verify(g.proof); err != nil {
			bad = append(bad, problem{g.idx, fmt.Sprintf("agent %d access %d: proof for %s does not verify: %v", agent, g.idx, g.access, err)})
		}
		if g.proof.Access != g.access {
			bad = append(bad, problem{g.idx, fmt.Sprintf("agent %d access %d: proof names %s, requested %s", agent, g.idx, g.proof.Access, g.access)})
		}
		if !bytes.Equal(g.data, in.content[g.access.Server][g.access.Resource]) {
			bad = append(bad, problem{g.idx, fmt.Sprintf("agent %d access %d: data of %s differs from the hosted content", agent, g.idx, g.access)})
		}
	}
	return bad
}

// compareVerdicts checks an agent's verdict sequence against the
// reference and describes every difference.
func compareVerdicts(agent int, got, want []verdict) []problem {
	var bad []problem
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			bad = append(bad, problem{i, fmt.Sprintf("agent %d access %d: missing, reference %s", agent, i, want[i])})
		case i >= len(want):
			bad = append(bad, problem{i, fmt.Sprintf("agent %d access %d: %s beyond the reference stream", agent, i, got[i])})
		case got[i] != want[i]:
			bad = append(bad, problem{i, fmt.Sprintf("agent %d access %d: %s, reference %s", agent, i, got[i], want[i])})
		}
	}
	return bad
}
