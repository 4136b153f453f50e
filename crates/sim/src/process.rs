//! The protocol-facing node abstraction.

use crate::{Round, Value};
use rbcast_grid::{BitSet, Coord, Metric, NeighborTable, NodeId, Torus};

/// A node's protocol logic.
///
/// One `Process` instance drives one node. Honest nodes run the protocol
/// under test; Byzantine nodes run adversarial implementations. All state
/// lives inside the implementation — the simulator only routes messages.
pub trait Process<M> {
    /// Invoked once at round 0, before any message exchange.
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>);

    /// Invoked for every message heard. `from` is the true transmitter
    /// identity (the model rules out spoofing).
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: &M);

    /// Invoked after all of a round's deliveries, once per round in which
    /// this node was alive. Protocols with expensive commit rules batch
    /// their evaluation here.
    fn on_round_end(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// Quiescence declaration for the sparse wavefront engine.
    ///
    /// Returning `false` is a promise that, until the next message is
    /// delivered to this node, [`Process::on_round_end`] would have no
    /// observable effect: no broadcast, no decision, no note, and no
    /// internal state change that a later callback depends on. The sparse
    /// engine then skips the callback in rounds where the node heard
    /// nothing, which is what turns an area-proportional round scan into
    /// a frontier-proportional one.
    ///
    /// The engine re-reads this after every callback it runs on the node,
    /// so the answer may change with internal state (e.g. a transmission
    /// budget draining to zero). It must not change *between* callbacks —
    /// a process has no spontaneous transitions in this model.
    ///
    /// The default is `true` (poll every round), which preserves exact
    /// dense semantics for implementations that predate this contract.
    fn needs_round_end(&self) -> bool {
        true
    }
}

/// One queued transmission: the true sender, the identity the channel
/// reports to receivers (differs only under the §X spoofing relaxation),
/// and the payload.
#[derive(Debug, Clone)]
pub(crate) struct Transmission<M> {
    pub sender: NodeId,
    pub claimed: NodeId,
    pub msg: M,
}

/// The effect buffers of a host that runs a single node ([`crate::Harness`],
/// [`crate::NodeDriver`]): its outbox, decision, pending notes and
/// broadcast count. [`crate::Network`] keeps the same buffers flat, shared
/// by all of its nodes.
#[derive(Debug)]
pub(crate) struct NodeBuffers<M> {
    pub outbox: Vec<Transmission<M>>,
    pub decision: Option<(Value, Round)>,
    pub notes: Vec<(&'static str, u64)>,
    pub messages_sent: u64,
}

impl<M> NodeBuffers<M> {
    pub(crate) fn new() -> Self {
        NodeBuffers {
            outbox: Vec::new(),
            decision: None,
            notes: Vec::new(),
            messages_sent: 0,
        }
    }

    /// A callback context for node `id` writing into these buffers. A
    /// single-node host keeps no decision ledger: its one decision slot
    /// is the whole record.
    pub(crate) fn ctx<'a>(
        &'a mut self,
        arena: &'a NeighborTable,
        id: NodeId,
        round: Round,
    ) -> Ctx<'a, M> {
        Ctx {
            id,
            arena,
            round,
            outbox: &mut self.outbox,
            decision: &mut self.decision,
            notes: &mut self.notes,
            messages_sent: &mut self.messages_sent,
            ledger: None,
        }
    }
}

/// Incrementally maintained decision bookkeeping, updated at the moment
/// [`Ctx::decide`] commits a node. Replaces the dense engine's O(n)
/// per-round recount of the decision array and the O(n) completion-mask
/// zip scan with popcount-maintained counters and an O(1) frozen check.
#[derive(Debug)]
pub(crate) struct DecisionLedger {
    /// One bit per node: has this node decided? Kept in lockstep with
    /// the network's decision array — `Ctx::decide` is the only writer
    /// of either.
    pub decided: BitSet,
    /// Completion mask (nodes that must decide before the trace-hash
    /// freeze), when one is installed.
    pub mask: Option<BitSet>,
    /// Popcount of `decided`.
    pub decided_count: u64,
    /// Popcount of `decided ∩ mask` (0 when no mask is installed).
    pub masked_decided: u64,
    /// Popcount of `mask` (0 when no mask is installed).
    pub mask_count: u64,
    /// Node indices that decided since the last `scan_decisions` drain,
    /// in decision order; re-sorted by node index before Decision events
    /// are emitted so the event stream matches the dense scan's.
    pub fresh: Vec<u32>,
}

impl DecisionLedger {
    pub(crate) fn new(n: usize) -> DecisionLedger {
        DecisionLedger {
            decided: BitSet::new(n),
            mask: None,
            decided_count: 0,
            masked_decided: 0,
            mask_count: 0,
            fresh: Vec::new(),
        }
    }

    /// Records a fresh (first-time) decision by node `idx`.
    pub(crate) fn record(&mut self, idx: usize) {
        if self.decided.set(idx) {
            self.decided_count += 1;
            if self.mask.as_ref().is_some_and(|m| m.get(idx)) {
                self.masked_decided += 1;
            }
            self.fresh
                .push(u32::try_from(idx).expect("node index fits u32"));
        }
    }

    /// Installs (or clears) the completion mask and recomputes the two
    /// mask-derived counters by popcount — O(n/64), run outside the loop.
    pub(crate) fn set_mask(&mut self, mask: Option<BitSet>) {
        self.mask = mask;
        self.mask_count = self.mask.as_ref().map_or(0, BitSet::count_ones);
        self.masked_decided = self
            .mask
            .as_ref()
            .map_or(0, |m| m.intersection_count(&self.decided));
    }

    /// All nodes in the (installed) completion mask have decided. With no
    /// mask — or an empty one — this is vacuously true, matching the dense
    /// engine's `iter().all()` over the mask.
    pub(crate) fn mask_complete(&self) -> bool {
        self.masked_decided == self.mask_count
    }
}

/// The execution context handed to [`Process`] callbacks: node identity,
/// network geometry, and the two effects a node can have — broadcasting a
/// message and deciding a value.
#[derive(Debug)]
pub struct Ctx<'a, M> {
    pub(crate) id: NodeId,
    pub(crate) arena: &'a NeighborTable,
    pub(crate) round: Round,
    /// The host's outbox. In a [`crate::Network`] it is shared by every
    /// node and collected once per round.
    pub(crate) outbox: &'a mut Vec<Transmission<M>>,
    /// This node's decision slot.
    pub(crate) decision: &'a mut Option<(Value, Round)>,
    /// Trace notes queued by [`Ctx::note`], drained by the host after
    /// every callback.
    pub(crate) notes: &'a mut Vec<(&'static str, u64)>,
    pub(crate) messages_sent: &'a mut u64,
    /// The network's decision bookkeeping; `None` in single-node hosts.
    pub(crate) ledger: Option<&'a mut DecisionLedger>,
}

impl<'a, M> Ctx<'a, M> {
    /// This node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's grid coordinate (canonical torus representative).
    #[must_use]
    pub fn coord(&self) -> Coord {
        self.arena.torus().coord(self.id)
    }

    /// The shared topology arena: precomputed CSR neighbor lists and the
    /// commit-rule ball stencils for this network's `(torus, r, metric)`.
    #[must_use]
    pub fn arena(&self) -> &'a NeighborTable {
        self.arena
    }

    /// This node's precomputed radius-`r` neighborhood (excluding the
    /// node itself), in the canonical [`Torus::neighborhood`] order.
    #[must_use]
    pub fn neighbors(&self) -> &'a [NodeId] {
        self.arena.neighbors(self.id)
    }

    /// The network arena.
    #[must_use]
    pub fn torus(&self) -> &'a Torus {
        self.arena.torus()
    }

    /// The transmission radius `r`.
    #[must_use]
    pub fn radius(&self) -> u32 {
        self.arena.radius()
    }

    /// The distance metric in force.
    #[must_use]
    pub fn metric(&self) -> Metric {
        self.arena.metric()
    }

    /// The current round number.
    #[must_use]
    pub fn round(&self) -> Round {
        self.round
    }

    /// Queues `msg` for local broadcast. It is heard by every node within
    /// distance `r` at the start of the next round, in per-sender FIFO
    /// order.
    pub fn broadcast(&mut self, msg: M) {
        self.broadcast_as(self.id, msg);
    }

    /// Queues `msg` for local broadcast under a *forged* sender identity
    /// (§X). Honest protocols never call this; Byzantine processes may —
    /// the forgery is honoured only when the channel was configured with
    /// spoofing enabled, and is silently corrected to the true identity
    /// otherwise.
    pub fn broadcast_as(&mut self, claimed: NodeId, msg: M) {
        *self.messages_sent += 1;
        self.outbox.push(Transmission {
            sender: self.id,
            claimed,
            msg,
        });
    }

    /// Records this node's irrevocable decision (the paper's *commit*).
    /// Later calls are ignored — a node commits at most once.
    pub fn decide(&mut self, v: Value) {
        if self.decision.is_none() {
            *self.decision = Some((v, self.round));
            if let Some(ledger) = self.ledger.as_deref_mut() {
                ledger.record(self.id.index());
            }
        }
    }

    /// Records a protocol-level trace note — e.g. "commit evidence
    /// accepted" with the chain count that satisfied the rule. Notes are
    /// forwarded to the network's trace sink (when one is installed) as
    /// [`crate::trace::TraceEvent::Note`]; they never contribute to the
    /// delivery-trace hash, so annotating a protocol cannot perturb
    /// determinism checks.
    pub fn note(&mut self, label: &'static str, value: u64) {
        self.notes.push((label, value));
    }

    /// The value this node has decided, if any.
    #[must_use]
    pub fn decision(&self) -> Option<Value> {
        self.decision.map(|(v, _)| v)
    }

    /// True once [`Ctx::decide`] has been called.
    #[must_use]
    pub fn has_decided(&self) -> bool {
        self.decision.is_some()
    }
}
