//! REDUCE path: reducible calls folded into per-(group, source)
//! summaries and broadcast as summary slots.
//!
//! Fig. 7's REDUCE rule: a reducible call is summarized with the
//! issuer's current summary for its summarization group; peers learn it
//! by polling the issuer's summary slot (last-writer-wins, carrying the
//! per-method applied counts). The broadcast is write-combined: at most
//! one summary publish per (group, peer) channel is in flight; calls
//! folded in meanwhile wait (`SumChannel::waiters`) for a later publish
//! to carry their — or a newer — version, and a completion that lands
//! stale reposts the latest slot before crediting anyone.
//!
//! Appending groups
//! ([`CoordSpec::sum_group_appends`](hamband_core::coord::CoordSpec::sum_group_appends))
//! never build a summary: each call is appended as a record to the
//! slot's payload ([`crate::codec::append_to_slot`]). A publish ships
//! the records a peer lacks as one WRITE followed by a header WRITE —
//! RC delivers the two in posting order, and the threaded backend's
//! `Release` stores order them the same way — unless re-sending what
//! already landed costs no more than the extra verb, in which case one
//! full-image WRITE goes out. Readers verify the new bytes against the
//! header's check and apply only the new records.

use std::collections::VecDeque;

use hamband_core::coord::CoordSpec;
use hamband_core::ids::{MethodId, Pid};
use hamband_core::object::WorkloadSupport;
use hamband_core::wire::Wire;
use rdma_sim::{NodeId, Phase, TraceEvent};

use crate::calls::{Outstanding, Route};
use crate::codec::{
    append_head_len, append_to_slot, summary_version, AppendCursor, AppendHeader, SummarySlot,
};
use crate::replica::HambandNode;
use crate::transport::Transport;

/// Last summary observed from one (summarization group, source):
/// version word, per-method applied counts, and the summary itself —
/// or, for an appending group, every call appended so far plus the
/// cursor at the end of their payload.
#[derive(Debug, Clone)]
pub(crate) struct CachedSummary<U> {
    pub(crate) version: u64,
    pub(crate) counts: Vec<u64>,
    pub(crate) summary: Option<U>,
    pub(crate) records: Vec<U>,
    pub(crate) cursor: AppendCursor,
}

impl<U> CachedSummary<U> {
    /// The never-written cache of every (summarization group, source).
    pub(crate) fn table(coord: &CoordSpec, n: usize) -> Vec<Vec<Self>> {
        coord
            .sum_groups()
            .iter()
            .map(|g| {
                (0..n)
                    .map(|_| CachedSummary {
                        version: 0,
                        counts: vec![0; g.len()],
                        summary: None,
                        records: Vec::new(),
                        cursor: AppendCursor::default(),
                    })
                    .collect()
            })
            .collect()
    }
}

/// One (summarization group, peer) channel of the own summary slot.
#[derive(Debug, Clone, Default)]
pub(crate) struct SumChannel {
    /// Version of the publish in flight; `None` = the channel is idle.
    /// At most one is ever in flight — further reduces only fold
    /// locally, and completion reposts the latest slot if it moved
    /// past what landed (slots are last-writer-wins, so this is the
    /// paper's own amortization).
    pub(crate) inflight: Option<u64>,
    /// Calls whose version has not yet landed at the peer, oldest
    /// first (`(version, call_id)`). A completed publish carrying
    /// version `v` covers every waiter with version `<= v`.
    pub(crate) waiters: VecDeque<(u64, u64)>,
    /// Appending groups: payload bytes known to have landed at the
    /// peer (0 after a restart, forcing a full image).
    pub(crate) landed: usize,
}

impl<O> HambandNode<O>
where
    O: WorkloadSupport,
    O::Update: Wire,
{
    /// REDUCE: fold into the summary, broadcast the slot.
    pub(crate) fn issue_reduce<T: Transport>(
        &mut self,
        ctx: &mut T,
        update: O::Update,
        method: MethodId,
        g: usize,
        session: u32,
    ) {
        if !self.permissible_now(&update) {
            self.reject(method, session);
            return;
        }
        ctx.consume(ctx.latency().apply_cost);
        let me = self.me.index();
        let midx = self.coord.sum_groups()[g]
            .iter()
            .position(|&m| m == method)
            .expect("method in group");
        let appends = self.coord.sum_group_appends(g);
        let slot_size = self.layout.summary_size(g);
        // Fold the call into the own cache and encode the latest slot
        // once into the group's reusable buffer (used prefix only),
        // straight from the cache — no clones.
        let mut slot = std::mem::take(&mut self.sum_slot_buf[g]);
        let cache = &mut self.sum_cache[g][me];
        cache.version += 1;
        cache.counts[midx] += 1;
        let version = cache.version;
        // Leading bytes of the local copy this call leaves as they are:
        // an appending slot only gains records and a new header.
        let mut kept = 0;
        if appends {
            kept = slot.len();
            cache.cursor =
                append_to_slot(&mut slot, cache.cursor, version, &cache.counts, &update, slot_size);
        } else {
            let new_summary = match &cache.summary {
                None => update.clone(),
                Some(prev) => self
                    .spec
                    .summarize(prev, &update)
                    .expect("summarization group closed under summarize"),
            };
            cache.summary = Some(new_summary);
            let summary = cache.summary.as_ref();
            SummarySlot::encode_parts_into(version, &cache.counts, summary, slot_size, &mut slot);
        }
        self.applied.set(Pid(me), method, self.sum_cache[g][me].counts[midx]);
        // Local effects: the call itself lands in the views.
        self.apply_to_views(&update);
        self.metrics.last_apply = ctx.now();
        if appends {
            self.sum_cache[g][me].records.push(update);
        }

        let (call_id, _rid) = self.mint_call(method);
        // Reliable broadcast: backup first, then the remote writes.
        let backup_slot = self.write_backup(ctx, call_id, crate::codec::BACKUP_SUMMARY, g as u8, version, &slot);
        let offset = self.layout.summary_offset(g, self.me);
        if kept > 0 {
            let head = append_head_len(self.coord.sum_groups()[g].len());
            ctx.local_write(self.layout.summaries, offset + kept, &slot[kept..]);
            ctx.local_write(self.layout.summaries, offset, &slot[..head]);
        } else {
            ctx.local_write(self.layout.summaries, offset, &slot);
        }
        // Durability seam: the own summary slot is this node's only
        // record of its reducible calls — fence it before the remote
        // copies can land.
        ctx.fence_region(self.layout.summaries);
        // Write-combining: post only where the (group, peer) channel is
        // idle; otherwise the call waits for a later write to carry its
        // (or a newer) version — the slot is last-writer-wins, so a
        // landed version v acknowledges every call folded in up to v.
        let mut remotes = 0;
        for q in 0..self.n {
            if q == me {
                continue;
            }
            remotes += 1;
            self.sum_chan[g][q].waiters.push_back((version, call_id));
            if self.sum_chan[g][q].inflight.is_none() {
                self.post_summary(ctx, g, NodeId(q), version, &slot, method.index());
            }
        }
        self.sum_slot_buf[g] = slot;
        self.outstanding.insert(
            call_id,
            Outstanding {
                issued_at: self.pending_arrival.take().unwrap_or_else(|| ctx.now()),
                method,
                session,
                phase: Phase::Reduce,
                conf: None,
                ack_remaining: remotes,
                total_remaining: remotes,
                backup_slot: Some(backup_slot),
            },
        );
        if remotes == 0 {
            self.finish_call(ctx, call_id);
        }
    }

    /// Publish the own slot image `slot` (carrying `version`) to
    /// `target` and mark the (group, peer) channel busy. `method` only
    /// labels the trace event (a combined publish carries the whole
    /// group's summary).
    ///
    /// An appending group ships only the payload bytes past what
    /// landed, then the header, unless re-sending the landed bytes
    /// costs no more than that extra verb (`per_byte_ns` against
    /// `post_cost + nic_tx_cost`); then one full-image WRITE goes out.
    /// Only the last WRITE is routed: RC completes the two in order.
    pub(crate) fn post_summary<T: Transport>(
        &mut self,
        ctx: &mut T,
        g: usize,
        target: NodeId,
        version: u64,
        slot: &[u8],
        method: usize,
    ) {
        let q = target.index();
        debug_assert!(self.sum_chan[g][q].inflight.is_none(), "one in flight per peer");
        let offset = self.layout.summary_offset(g, self.me);
        let region = self.layout.summaries;
        let len = self.sum_cache[g][self.me.index()].cursor.len();
        let wr = if self.coord.sum_group_appends(g) {
            let landed = self.sum_chan[g][q].landed;
            let lat = ctx.latency();
            let resend_ns = landed as f64 * lat.per_byte_ns;
            let verb_ns = (lat.post_cost + lat.nic_tx_cost).as_nanos() as f64;
            if resend_ns <= verb_ns {
                ctx.post_write(target, region, offset, slot)
            } else {
                let head = slot.len() - len;
                ctx.post_write(target, region, offset + head + landed, &slot[head + landed..]);
                ctx.post_write(target, region, offset, &slot[..head])
            }
        } else {
            ctx.post_write(target, region, offset, slot)
        };
        let issuer = self.me;
        ctx.emit(|| TraceEvent::SummaryWrite { issuer, target, method, version });
        self.sum_chan[g][q].inflight = Some(version);
        self.wr_routes.insert(wr, Route::SummaryWrite { group: g, target, version, len });
    }

    /// Poll every peer's summary slots: adopt newer versions into the
    /// cache, raise the applied counts, and fold the summary into the
    /// views (or invalidate them, for non-monotone summaries).
    pub(crate) fn poll_summaries<T: Transport>(&mut self, ctx: &mut T) {
        let monotone = self.spec.summaries_monotone();
        for g in 0..self.sum_cache.len() {
            let group_methods: Vec<MethodId> = self.coord.sum_groups()[g].clone();
            let appends = self.coord.sum_group_appends(g);
            for src in 0..self.n {
                if src == self.me.index() {
                    continue;
                }
                if appends {
                    self.poll_append_slot(ctx, g, src, &group_methods);
                    continue;
                }
                let off = self.layout.summary_offset(g, NodeId(src));
                let size = self.layout.summary_size(g);
                let parsed = {
                    let bytes = ctx.local(self.layout.summaries, off, size);
                    // Fast path: peek the leading version word before
                    // paying for a full seqlock parse — an unchanged
                    // slot is the common case in the poll loop.
                    if summary_version(bytes) <= self.sum_cache[g][src].version {
                        continue;
                    }
                    SummarySlot::<O::Update>::from_slot(bytes, group_methods.len())
                };
                let Some(slot) = parsed else { continue };
                if slot.version <= self.sum_cache[g][src].version {
                    continue;
                }
                ctx.consume(ctx.latency().apply_cost);
                self.raise_applied(src, &group_methods, &slot.counts);
                if monotone {
                    if let Some(sum) = &slot.summary {
                        self.apply_to_views(sum);
                    }
                } else {
                    self.mat_dirty = true;
                    // A stale speculative view would corrupt checks:
                    // rebuild it from scratch below if present.
                    if self.spec_mat.is_some() {
                        self.rebuild_spec_mat();
                    }
                }
                self.metrics.remote_applied += 1;
                self.metrics.last_apply = ctx.now();
                let cache = &mut self.sum_cache[g][src];
                cache.version = slot.version;
                cache.counts = slot.counts;
                cache.summary = slot.summary;
            }
        }
    }

    /// Poll one appending slot: read the header, and if it is newer,
    /// the payload bytes past the cached cursor; verify them against
    /// the header's check and apply just the new records.
    fn poll_append_slot<T: Transport>(
        &mut self,
        ctx: &mut T,
        g: usize,
        src: usize,
        group_methods: &[MethodId],
    ) {
        let off = self.layout.summary_offset(g, NodeId(src));
        let head = append_head_len(group_methods.len());
        let (version, from) = (self.sum_cache[g][src].version, self.sum_cache[g][src].cursor);
        let hdr = {
            let bytes = ctx.local(self.layout.summaries, off, head);
            if summary_version(bytes) <= version {
                return;
            }
            AppendHeader::parse(bytes, group_methods.len())
        };
        let Some(hdr) = hdr else { return };
        if hdr.len < from.len() || head + hdr.len > self.layout.summary_size(g) {
            return;
        }
        // The header was read first: under the threaded backend its
        // `Acquire` loads order the payload reads after the writer's
        // payload stores.
        let adopted = {
            let at = off + head + from.len();
            let delta = ctx.local(self.layout.summaries, at, hdr.len - from.len());
            from.advance::<O::Update>(version, &hdr, delta)
        };
        let Some((cursor, calls)) = adopted else { return };
        ctx.consume(ctx.latency().apply_cost);
        self.raise_applied(src, group_methods, &hdr.counts);
        for call in &calls {
            self.apply_to_views(call);
        }
        self.metrics.remote_applied += 1;
        self.metrics.last_apply = ctx.now();
        let cache = &mut self.sum_cache[g][src];
        cache.version = hdr.version;
        cache.counts = hdr.counts;
        cache.cursor = cursor;
        cache.records.extend(calls);
    }

    /// Raise `A(src, m)` to the counts a summary slot carries.
    pub(crate) fn raise_applied(&mut self, src: usize, group_methods: &[MethodId], counts: &[u64]) {
        for (&m, &c) in group_methods.iter().zip(counts) {
            let old = self.applied.get(Pid(src), m);
            self.applied.set(Pid(src), m, old.max(c));
        }
    }

    /// A summary publish to `(g, target)` completed: record how much
    /// payload landed, free the channel, repost if the local summary
    /// already moved past what landed, and credit every call whose
    /// version the landed publish covers.
    pub(crate) fn on_summary_write_done<T: Transport>(
        &mut self,
        ctx: &mut T,
        g: usize,
        target: NodeId,
        version: u64,
        len: usize,
    ) {
        // Summary regions never revoke write permission, so the
        // status needs no inspection (same as before combining).
        let q = target.index();
        let chan = &mut self.sum_chan[g][q];
        debug_assert_eq!(chan.inflight, Some(version), "routed write matches");
        chan.inflight = None;
        chan.landed = len;
        // The slot is last-writer-wins: landing version v makes
        // every folded-in call up to v durable at this peer.
        let mut credited = Vec::new();
        while let Some(&(v, cid)) = chan.waiters.front() {
            if v > version {
                break;
            }
            chan.waiters.pop_front();
            credited.push(cid);
        }
        // Dirty channel: the local summary moved past what
        // landed — repost the latest slot (it is already
        // encoded in the group's reuse buffer). This must
        // happen BEFORE crediting: crediting re-enters the
        // pump, and a fresh reduce issued there must find the
        // channel busy again, not post a second in-flight
        // write on it.
        let latest = self.sum_cache[g][self.me.index()].version;
        if latest > version {
            debug_assert!(
                !self.sum_chan[g][q].waiters.is_empty(),
                "a newer local version implies someone still waits"
            );
            let slot = std::mem::take(&mut self.sum_slot_buf[g]);
            let method = self.coord.sum_groups()[g][0].index();
            self.post_summary(ctx, g, target, latest, &slot, method);
            self.sum_slot_buf[g] = slot;
        }
        for cid in credited {
            self.credit_summary_peer(ctx, cid);
        }
    }
}
