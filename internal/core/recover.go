package core

import (
	"errors"
	"fmt"
	"sync"

	"twoface/internal/cluster"
	"twoface/internal/dense"
)

// Fail-recover execution (DESIGN.md section 12). With cluster recovery
// enabled, a fault-plan crash no longer aborts the run: the doomed rank
// executes a serialized checkpointing variant of Algorithm 1 and dies at its
// crash time as a membership transition, and after the epilogue fence the
// survivors redistribute its unfinished work, re-fetch the inputs it held,
// and re-execute from its last checkpoint. C comes out equivalent to the
// fault-free run, and all recovery overhead is attributed to the Checkpoint
// and Recovery ledger categories.
//
// The recovery unit numbering is canonical and shared by the doomed rank's
// checkpoints and the survivors' redistribution: units [0, nAsync) are the
// async batches of buildAsyncSchedule (or the async stripes, one each, under
// LegacyAsyncGets), and units [nAsync, nAsync+nPanels) are the sync row
// panels in plain index order. A DeathRecord's Units field is a cut in this
// numbering: everything below it was made durable by the last checkpoint,
// everything at or above it is re-executed by the survivors, striped
// round-robin over the live ranks in rank order.

// defaultCheckpointCadence sets the automatic checkpoint interval to this
// many checkpoint write costs, bounding checkpoint overhead to roughly
// 1/defaultCheckpointCadence (~2%) of runtime at any machine scale.
const defaultCheckpointCadence = 50

// stagedSink buffers row flushes for deferred, ordered replay into a rank's
// row block. Values are copied at staging time because callers reuse their
// accumulation scratch across rows and units.
type stagedSink struct {
	rows []int32
	buf  []float64
}

func (s *stagedSink) addRow(row int32, vals []float64) {
	s.rows = append(s.rows, row)
	s.buf = append(s.buf, vals...)
}

// flush replays the staged rows into blk in staging order and resets.
func (s *stagedSink) flush(blk *rowBlock) {
	for i, row := range s.rows {
		blk.addRow(row, s.buf[i*blk.k:(i+1)*blk.k])
	}
	s.reset()
}

// reset discards everything staged since the last flush — the doomed rank's
// work past its last checkpoint, lost with the crash.
func (s *stagedSink) reset() {
	s.rows, s.buf = s.rows[:0], s.buf[:0]
}

// checkpointInterval resolves the effective checkpoint cadence for one rank:
// zero (checkpointing off) unless the cluster is in fail-recover mode, the
// explicit option when set, and otherwise the self-scaling default cadence.
func checkpointInterval(r *cluster.Rank, np *NodePart, k int, opts ExecOptions) float64 {
	if !r.RecoveryEnabled() {
		return 0
	}
	if opts.CheckpointInterval > 0 {
		return opts.CheckpointInterval
	}
	elems := int64(np.RowHi-np.RowLo) * int64(k)
	return defaultCheckpointCadence * r.Net().CheckpointCost(elems)
}

// chargeHealthyCheckpoints accounts a surviving rank's cadenced snapshots as
// one epilogue lump: floor(NodeTime/interval) writes at the modeled
// checkpoint cost. Nothing ever restores from a survivor's checkpoints, so
// only their time matters, not their cut points.
func chargeHealthyCheckpoints(r *cluster.Rank, np *NodePart, k int, opts ExecOptions) {
	iv := checkpointInterval(r, np, k, opts)
	if iv <= 0 {
		return
	}
	n := int64(r.Breakdown().NodeTime() / iv)
	if n <= 0 {
		return
	}
	elems := int64(np.RowHi-np.RowLo) * int64(k)
	applied := r.ChargeOpTimed(cluster.Checkpoint, "checkpoint.write", float64(n)*r.Net().CheckpointCost(elems))
	r.CountCheckpoints(n, applied)
}

// checkpointer drives the doomed rank's cadenced snapshots: at each unit
// boundary past nextAt it charges one checkpoint write, makes the staged
// output durable, and records the cut. The cadence is anchored to the clock
// after each write (write time included), so a straggler-scaled rank
// checkpoints by its own slowed clock, like a real wall-clock timer would.
type checkpointer struct {
	interval float64
	cost     float64
	nextAt   float64
	cut      int   // units made durable by the last flush
	count    int64 // completed checkpoint writes
}

func newCheckpointer(r *cluster.Rank, np *NodePart, k int, opts ExecOptions) *checkpointer {
	iv := checkpointInterval(r, np, k, opts)
	elems := int64(np.RowHi-np.RowLo) * int64(k)
	return &checkpointer{interval: iv, cost: r.Net().CheckpointCost(elems), nextAt: iv}
}

func (ck *checkpointer) maybe(r *cluster.Rank, sink *stagedSink, out *rowBlock, unitsDone int) {
	if ck.interval <= 0 || r.Breakdown().NodeTime() < ck.nextAt {
		return
	}
	applied := r.ChargeOpTimed(cluster.Checkpoint, "checkpoint.write", ck.cost)
	r.CountCheckpoints(1, applied)
	sink.flush(out)
	ck.cut = unitsDone
	ck.count++
	ck.nextAt = r.Breakdown().NodeTime() + ck.interval
}

// execNodeDoomed is Algorithm 1 for a rank whose fault plan crashes it and
// whose cluster is in fail-recover mode. It runs single-threaded so the
// clock at every unit boundary — and therefore the crash cut — is a pure
// function of the plan, and stages all output through a stagedSink so only
// checkpointed units are ever visible in C. The crash itself is a clean
// membership transition (Rank.Die): the rank publishes how far its
// checkpoints got, leaves the barrier so the survivors' fence completes, and
// returns nil. Die fails (propagating to the PR 3 abort path) only when no
// live rank would remain to recover.
func execNodeDoomed(prep *Prep, b *dense.Matrix, r *cluster.Rank, c *dense.Matrix, opts ExecOptions, rec *recoveryCoordinator) error {
	layout, params := prep.Layout, prep.Params
	net := r.Net()
	np := &prep.Nodes[r.ID]
	k := params.K
	crashAt := r.CrashTime()
	out := nodeBlock(c, np)

	colBlock := layout.ColBlock(r.ID)
	r.Expose("B", b.RowRange(colBlock.Lo, colBlock.Hi))
	if err := r.Barrier(); err != nil {
		return err
	}

	rooted := 0
	lo, hi := layout.NodeStripeRange(r.ID)
	for sid := lo; sid < hi; sid++ {
		if len(prep.Dests[sid]) > 0 {
			rooted++
		}
	}
	r.ChargeOp(cluster.Other, "setup", net.SetupBase+net.SetupPerStripe*float64(len(np.RecvStripes)+np.Async.NumStripes()+rooted))

	ck := newCheckpointer(r, np, k, opts)
	die := func() error {
		return r.Die(r.Breakdown().NodeTime(), ck.cut, ck.count)
	}
	// crashed distinguishes this rank's own crash from a cluster-wide abort
	// (another rank's failure), which must propagate as an error instead.
	crashed := func(err error) bool {
		return errors.Is(err, cluster.ErrCrashed) && !errors.Is(err, cluster.ErrAborted)
	}

	// Dense-stripe reception, serialized (no pipeline: its overlap credit
	// would depend on goroutine timing, and a doomed rank needs a replayable
	// clock more than it needs overlap it won't live to enjoy). The sink is
	// created before the transfers so the cadence can tick through them.
	sink := &stagedSink{}
	recvBufs := make([][]float64, layout.NumStripes())
	if dead, err := doomedSyncTransfers(prep, r, np, recvBufs, k, ck, sink, out, crashAt); dead {
		return die()
	} else if err != nil {
		if crashed(err) {
			return die()
		}
		return err
	}

	legacy := params.LegacyAsyncGets
	var batches []asyncBatch
	nAsync := np.Async.NumStripes()
	if !legacy {
		batches = buildAsyncSchedule(layout, np, k, params.MaxBatchBytes, nil)
		nAsync = len(batches)
	}
	total := nAsync + np.Sync.NumPanels()

	// Fresh, unpooled scratch and no row cache: the charge sequence — which
	// fixes where the crash lands — must not depend on earlier runs' state.
	aws := &asyncScratch{}
	pws := &panelScratch{}
	defer pws.release()
	resolver := makeRowResolver(prep, b, r.ID, recvBufs, k)
	smp := opts.sampling()
	for u := 0; u < total; u++ {
		if r.Breakdown().NodeTime() >= crashAt {
			sink.reset()
			return die()
		}
		var err error
		switch {
		case u < nAsync && legacy:
			err = processAsyncStripe(prep, b, r, r, np, sink, aws, u, opts.SkipCompute, smp)
		case u < nAsync:
			err = processAsyncBatch(prep, b, r, r, np, sink, aws, batches[u], nil, opts.SkipCompute, smp)
		default:
			err = processSyncRowPanel(prep, r, r, np, sink, resolver, pws, u-nAsync, opts.SkipCompute, smp)
		}
		if err != nil {
			if crashed(err) {
				sink.reset()
				return die()
			}
			return err
		}
		ck.maybe(r, sink, out, u+1)
	}
	if r.Breakdown().NodeTime() >= crashAt {
		sink.reset()
		return die()
	}
	// The crash time lies beyond the rank's whole run: it completes normally
	// (its clock is frozen from here, so the fence cannot trip it) and joins
	// the survivors. A crash landing inside the recovery phase below is the
	// double-crash case: unrecoverable, aborting through failed().
	sink.flush(out)
	ck.cut = total
	r.Instant("epilogue.flush")
	if err := r.Barrier(); err != nil {
		return err
	}
	return runRecoveryPhase(prep, b, r, c, opts, rec)
}

// doomedSyncTransfers is the doomed rank's serialized replica of
// syncTransfers: the same root- and receiver-side charge sequence, but with
// the crash clock checked and the checkpoint cadence ticked at each stripe
// boundary. A cadence tick before any unit has run writes an (empty, cut 0)
// checkpoint — keeping the doomed rank's checkpoint count consistent with
// the healthy ranks' floor(NodeTime/interval) accounting even when the
// crash lands inside the transfer phase. Returns dead=true when the rank
// hit its crash boundary; err carries transfer failures (which may
// themselves wrap the crash, tripped inside a pull).
func doomedSyncTransfers(prep *Prep, r *cluster.Rank, np *NodePart, recvBufs [][]float64, k int, ck *checkpointer, sink *stagedSink, out *rowBlock, crashAt float64) (dead bool, err error) {
	layout := prep.Layout
	net := r.Net()

	lo, hi := layout.NodeStripeRange(r.ID)
	for sid := lo; sid < hi; sid++ {
		if n := len(prep.Dests[sid]); n > 0 {
			if r.Breakdown().NodeTime() >= crashAt {
				return true, nil
			}
			elems := int64(layout.StripeWidthOf(sid)) * int64(k)
			r.ChargeOp(cluster.SyncComm, "multicast.root", net.MulticastCost(elems, n))
			ck.maybe(r, sink, out, 0)
		}
	}

	var total int64
	for _, sid := range np.RecvStripes {
		colLo, colHi := layout.StripeCols(sid)
		total += int64(colHi-colLo) * int64(k)
	}
	buf := make([]float64, total)
	for _, sid := range np.RecvStripes {
		if r.Breakdown().NodeTime() >= crashAt {
			return true, nil
		}
		colLo, colHi := layout.StripeCols(sid)
		owner := layout.StripeOwner(sid)
		ownerBlock := layout.ColBlock(owner)
		elems := int64(colHi-colLo) * int64(k)
		dst := buf[:elems:elems]
		buf = buf[elems:]
		off := int64(colLo-int32(ownerBlock.Lo)) * int64(k)
		if _, _, err := r.MulticastPullTimed(owner, "B", off, elems, dst); err != nil {
			return false, err
		}
		recvBufs[sid] = dst
		r.ChargeOp(cluster.SyncComm, "multicast.recv", net.MulticastCost(elems, len(prep.Dests[sid])))
		ck.maybe(r, sink, out, 0)
	}
	return false, nil
}

// runRecoveryPhase is the survivors' post-fence tail: nothing on a run
// without deaths, otherwise redistribute and re-execute every dead rank's
// unfinished units, then re-synchronize. The second barrier exists only on
// the death path, and the death list is fence-consistent, so every live rank
// takes the same barrier count.
func runRecoveryPhase(prep *Prep, b *dense.Matrix, r *cluster.Rank, c *dense.Matrix, opts ExecOptions, rec *recoveryCoordinator) error {
	deaths := r.Deaths()
	if len(deaths) == 0 {
		return nil
	}
	if err := recoverDead(prep, b, r, c, opts, rec, deaths); err != nil {
		return err
	}
	return r.Barrier()
}

// recoverDead re-executes the dead ranks' unfinished work, one dead rank at
// a time in rank order (all survivors agree on the order, so the per-death
// flush pipelines can never wait on each other cyclically). All charges in
// here land in the Recovery category via BeginRecovery, and the phase's
// applied seconds and re-executed unit counts go to ResilienceStats.
func recoverDead(prep *Prep, b *dense.Matrix, r *cluster.Rank, c *dense.Matrix, opts ExecOptions, rec *recoveryCoordinator, deaths []cluster.DeathRecord) error {
	live := liveAfter(r.P, deaths)
	myPos := -1
	for i, id := range live {
		if id == r.ID {
			myPos = i
		}
	}
	if myPos < 0 {
		return fmt.Errorf("core: rank %d entered recovery but is recorded dead", r.ID)
	}
	r.BeginRecovery()
	defer r.EndRecovery()
	before := r.Breakdown().Recovery
	var stripes, panels int64
	for _, d := range deaths {
		s, p, err := recoverOne(prep, b, r, c, opts, rec, d, live, myPos)
		stripes += s
		panels += p
		if err != nil {
			return err
		}
	}
	if applied := r.Breakdown().Recovery - before; stripes > 0 || panels > 0 || applied > 0 {
		r.CountRecovered(stripes, panels, applied)
	}
	return nil
}

// recoverOne re-executes one dead rank's units from its checkpoint cut. Each
// survivor takes the units at its position modulo the live count, computes
// them into a stagedSink, and flushes in global unit order through the
// death's shared pipeline — so the additions into the dead rank's C rows
// happen in one deterministic sequence regardless of survivor interleaving
// (the pipeline's mutex orders them for the race detector as well), and a
// same-seed replay reproduces C bit-for-bit.
func recoverOne(prep *Prep, b *dense.Matrix, r *cluster.Rank, c *dense.Matrix, opts ExecOptions, rec *recoveryCoordinator, d cluster.DeathRecord, live []int, myPos int) (stripes, panels int64, err error) {
	layout, params := prep.Layout, prep.Params
	k := params.K
	np := &prep.Nodes[d.Rank]
	out := nodeBlock(c, np)
	legacy := params.LegacyAsyncGets
	var batches []asyncBatch
	nAsync := np.Async.NumStripes()
	if !legacy {
		// buildAsyncSchedule is a pure function of the plan, so every
		// survivor independently reconstructs the dead rank's batch list —
		// and the unit numbering its checkpoints used.
		batches = buildAsyncSchedule(layout, np, k, params.MaxBatchBytes, nil)
		nAsync = len(batches)
	}
	todo := nAsync + np.Sync.NumPanels() - d.Units
	if todo <= 0 {
		return 0, 0, nil
	}
	pl := rec.pipeline(d.Rank)
	abort := func(e error) (int64, int64, error) {
		rec.fail(e) // release every survivor blocked in a flush pipeline
		return stripes, panels, e
	}

	// The dead rank's inputs for any row panels assigned here: its own B
	// column block plus the received stripes those panels reference, all
	// re-pulled over the reliable collective substrate. Built even under
	// SkipCompute so the re-fetch charges (timing) don't depend on it.
	var resolver rowResolver
	for j := myPos; j < todo; j += len(live) {
		if d.Units+j >= nAsync {
			var rerr error
			if resolver, rerr = buildRecoveryResolver(prep, r, d, live, myPos, nAsync, todo); rerr != nil {
				return abort(rerr)
			}
			break
		}
	}

	sink := &stagedSink{}
	aws := &asyncScratch{}
	pws := &panelScratch{}
	defer pws.release()
	smp := opts.sampling()
	for j := myPos; j < todo; j += len(live) {
		u := d.Units + j
		var uerr error
		switch {
		case u < nAsync && legacy:
			uerr = processAsyncStripe(prep, b, r, r, np, sink, aws, u, opts.SkipCompute, smp)
		case u < nAsync:
			uerr = processAsyncBatch(prep, b, r, r, np, sink, aws, batches[u], nil, opts.SkipCompute, smp)
		default:
			uerr = processSyncRowPanel(prep, r, r, np, sink, resolver, pws, u-nAsync, opts.SkipCompute, smp)
		}
		if uerr != nil {
			return abort(uerr)
		}
		if werr := pl.wait(j); werr != nil {
			return stripes, panels, werr
		}
		sink.flush(out)
		pl.done()
		switch {
		case u >= nAsync:
			panels++
		case legacy:
			stripes++
		default:
			stripes += int64(batches[u].hi - batches[u].lo)
		}
	}
	return stripes, panels, nil
}

// buildRecoveryResolver re-fetches the dense inputs a dead rank's row panels
// need — its own B column block and the received stripes referenced by the
// panels assigned to this survivor — and returns a rowResolver over the
// local copies. Traffic moves through RecoverPull (counted as collective,
// attributed to RefetchedElems) and each pull is charged one single-
// destination multicast to the Recovery clock.
func buildRecoveryResolver(prep *Prep, r *cluster.Rank, d cluster.DeathRecord, live []int, myPos, nAsync, todo int) (rowResolver, error) {
	layout, k := prep.Layout, prep.Params.K
	np := &prep.Nodes[d.Rank]
	net := r.Net()

	ownBlock := layout.ColBlock(d.Rank)
	ownElems := int64(ownBlock.Len()) * int64(k)
	ownBuf := make([]float64, ownElems)
	if _, err := r.RecoverPull(d.Rank, "B", []cluster.Region{{Off: 0, Elems: ownElems}}, ownBuf); err != nil {
		return nil, err
	}
	r.ChargeOp(cluster.Recovery, "recover.refetch", net.MulticastCost(ownElems, 1))

	deps := np.deps(layout)
	need := make(map[int32]bool)
	for j := myPos; j < todo; j += len(live) {
		u := d.Units + j
		if u < nAsync {
			continue
		}
		pi := u - nAsync
		for _, sid := range deps.sids[deps.ptr[pi]:deps.ptr[pi+1]] {
			need[sid] = true
		}
	}
	recvBufs := make([][]float64, layout.NumStripes())
	// Iterate RecvStripes, not the need set, so pulls happen in a
	// deterministic order.
	for _, sid := range np.RecvStripes {
		if !need[sid] {
			continue
		}
		colLo, colHi := layout.StripeCols(sid)
		owner := layout.StripeOwner(sid)
		ownerBlock := layout.ColBlock(owner)
		elems := int64(colHi-colLo) * int64(k)
		dst := make([]float64, elems)
		off := int64(colLo-int32(ownerBlock.Lo)) * int64(k)
		if _, err := r.RecoverPull(owner, "B", []cluster.Region{{Off: off, Elems: elems}}, dst); err != nil {
			return nil, err
		}
		r.ChargeOp(cluster.Recovery, "recover.refetch", net.MulticastCost(elems, 1))
		recvBufs[sid] = dst
	}
	return func(col int32) ([]float64, error) {
		if ownBlock.Contains(int(col)) {
			o := (int(col) - ownBlock.Lo) * k
			return ownBuf[o : o+k], nil
		}
		sid := layout.StripeOfCol(col)
		buf := recvBufs[sid]
		if buf == nil {
			return nil, fmt.Errorf("core: recovering rank %d's panels: dense stripe %d for column %d was never re-fetched", d.Rank, sid, col)
		}
		colLo, _ := layout.StripeCols(sid)
		o := int(col-colLo) * k
		return buf[o : o+k], nil
	}, nil
}

// liveAfter returns the sorted rank ids not present in the death list.
func liveAfter(p int, deaths []cluster.DeathRecord) []int {
	dead := make(map[int]bool, len(deaths))
	for _, d := range deaths {
		dead[d.Rank] = true
	}
	live := make([]int, 0, p-len(deaths))
	for i := 0; i < p; i++ {
		if !dead[i] {
			live = append(live, i)
		}
	}
	return live
}

// recoverPipeline serializes the survivors' output flushes for one dead rank
// into global unit order. Deadlock-free by construction: unit j's owner is
// live[(j) mod len(live)] shifted by the death's cut, every survivor
// processes its units in increasing j, and compute happens before wait — so
// the owner of the lowest unflushed unit is never blocked on the pipeline.
type recoverPipeline struct {
	mu   sync.Mutex
	cond *sync.Cond
	next int
	err  error
}

// wait blocks until it is unit j's turn to flush (or recovery failed).
func (pl *recoverPipeline) wait(j int) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for pl.next != j && pl.err == nil {
		pl.cond.Wait()
	}
	return pl.err
}

// done marks the current unit flushed and wakes the next owner.
func (pl *recoverPipeline) done() {
	pl.mu.Lock()
	pl.next++
	pl.cond.Broadcast()
	pl.mu.Unlock()
}

// fail poisons the pipeline: current and future waiters return err.
func (pl *recoverPipeline) fail(err error) {
	pl.mu.Lock()
	if pl.err == nil {
		pl.err = err
	}
	pl.cond.Broadcast()
	pl.mu.Unlock()
}

// recoveryCoordinator hands out the per-dead-rank flush pipelines shared by
// the survivors of one Exec, and fans a recovery failure out to all of them
// (including ones created later) so no survivor is left waiting on a flush
// turn that will never come.
type recoveryCoordinator struct {
	mu    sync.Mutex
	err   error
	pipes map[int]*recoverPipeline
}

func (rc *recoveryCoordinator) pipeline(rank int) *recoverPipeline {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.pipes == nil {
		rc.pipes = map[int]*recoverPipeline{}
	}
	pl := rc.pipes[rank]
	if pl == nil {
		pl = &recoverPipeline{}
		pl.cond = sync.NewCond(&pl.mu)
		rc.pipes[rank] = pl
		if rc.err != nil {
			pl.err = rc.err
		}
	}
	return pl
}

func (rc *recoveryCoordinator) fail(err error) {
	rc.mu.Lock()
	if rc.err == nil {
		rc.err = err
	}
	pipes := make([]*recoverPipeline, 0, len(rc.pipes))
	for _, pl := range rc.pipes {
		pipes = append(pipes, pl)
	}
	rc.mu.Unlock()
	for _, pl := range pipes {
		pl.fail(err)
	}
}
