//! Deterministic fault injection: [`FaultyComm`] and [`FaultPlan`].
//!
//! The paper's premise is that s-step methods trade synchronization for
//! larger unprotected compute/communication epochs — exactly the window
//! where soft errors do the most damage.  Studying that experimentally
//! requires *injecting* faults, and injecting them **deterministically**:
//! a campaign keyed on a seed must be replayable bitwise, independent of
//! thread interleaving.
//!
//! [`FaultyComm`] wraps any [`Communicator`] and perturbs what a solve
//! puts on the wire — all-reduce contributions (guard retries included)
//! and halo sends — according to a [`FaultPlan`].  `broadcast`,
//! `allgather` (matrix assembly negotiates its halo plan with two) and the
//! receives pass straight through, so a plan never reaches assembly.
//!
//! * each of the two operation kinds carries a per-rank **sequence
//!   number** (all-reduce sequences are identical on every rank by the
//!   collective-order contract, send sequences are per-rank);
//! * **explicit** injections name their victim by `(rank, op-kind,
//!   sequence-number)` — plus optional solver-phase and payload-size
//!   filters — so a single targeted fault can be placed on, say, "the 2nd
//!   Gram all-reduce of the ortho phase on rank 0";
//! * **sampled** injections draw from a seeded, counter-keyed hash
//!   (`hash(seed, salt, rank, seq)`), so rates compose with bitwise
//!   replayability: the same seed always corrupts the same operations.
//!
//! Fault model (chosen so that detection verdicts are *replicated* and
//! recovery never deadlocks — see [`crate::guard`]):
//!
//! * [`FaultKind::BitFlip`] on an **all-reduce** corrupts this rank's
//!   *contribution* (the transmitted payload).  The corrupted word is
//!   combined into every rank's result, so all ranks observe the same
//!   corrupted value and reach the same detection verdict — a collective
//!   retry is then itself a safe collective.  Corruption that would
//!   diverge per rank is modeled on halo sends instead, where recovery is
//!   local (checksum → poison → cycle rollback);
//! * [`FaultKind::OpFail`] poisons an all-reduce's result on **every**
//!   rank (a failed reduction), again keeping verdicts replicated — plans
//!   with a rank-targeted `OpFail` are rejected;
//! * [`FaultKind::DropMessage`] / [`FaultKind::DuplicateMessage`] /
//!   send-side `BitFlip` perturb the halo-exchange messages of one rank
//!   pair;
//! * [`FaultKind::Stall`] delays an all-reduce or a send; the receive
//!   timeout of [`Communicator::recv_timeout`] turns a stalled peer from
//!   a hang into a diagnosable [`crate::CommError`].
//!
//! Every injected event is recorded (see [`FaultyComm::events`]), counted,
//! and emitted as a trace instant so injections are visible in timelines
//! next to the spans they perturb.

use crate::comm::{CommError, Communicator};
use crate::stats::CommStats;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The operation kinds a fault can target: what a solve puts on the wire.
/// Every other operation (`broadcast`, `allgather`, `recv`) passes
/// straight through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `allreduce_sum` (including guard retries).
    Allreduce,
    /// Point-to-point `send`.
    Send,
}

/// What an injection does to its victim operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Flip one bit of one payload word (silent data corruption).  `word`
    /// is reduced modulo the payload length; `None` picks a seeded
    /// pseudo-random word.  On all-reduces the *contribution* is corrupted
    /// (see the module docs for why); on sends the message payload.
    BitFlip {
        /// Payload word to corrupt (`None` = seeded choice).
        word: Option<usize>,
        /// Bit to flip, `0..64`.
        bit: u32,
    },
    /// Swallow a point-to-point message: the sender believes it sent (the
    /// send is still tallied in [`CommStats`]), the receiver never sees it.
    DropMessage,
    /// Deliver a point-to-point message twice.
    DuplicateMessage,
    /// A transient all-reduce failure: the result is poisoned with NaN on
    /// every rank.
    OpFail,
    /// Delay the operation, simulating a stalled rank or link.
    Stall {
        /// Delay in milliseconds.
        millis: u64,
    },
}

impl FaultKind {
    /// Stable label used in event records and trace instants.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::BitFlip { .. } => "bitflip",
            FaultKind::DropMessage => "drop",
            FaultKind::DuplicateMessage => "duplicate",
            FaultKind::OpFail => "opfail",
            FaultKind::Stall { .. } => "stall",
        }
    }
}

/// Which operation an explicit [`Injection`] fires on.
#[derive(Debug, Clone, PartialEq)]
pub struct Target {
    /// Rank the fault occurs on (`None` = every rank; required `None` for
    /// [`FaultKind::OpFail`], which must stay replicated).
    pub rank: Option<usize>,
    /// Operation kind.
    pub op: OpKind,
    /// Only operations issued while this solver phase tag (see
    /// [`set_phase`]) is active; `None` = any phase.
    pub phase: Option<&'static str>,
    /// Only operations with at least this many payload words (lets a plan
    /// say "a Gram reduce, not the one-word norm reduce").
    pub min_words: usize,
    /// Index among the operations matching all other criteria (per rank,
    /// 0-based): the fault fires on the `seq`-th match.
    pub seq: u64,
}

impl Target {
    /// Target the `seq`-th operation of kind `op` on every rank.
    pub fn nth(op: OpKind, seq: u64) -> Self {
        Self {
            rank: None,
            op,
            phase: None,
            min_words: 0,
            seq,
        }
    }

    /// Restrict to one rank.
    pub fn on_rank(mut self, rank: usize) -> Self {
        self.rank = Some(rank);
        self
    }

    /// Restrict to one solver phase tag.
    pub fn in_phase(mut self, phase: &'static str) -> Self {
        self.phase = Some(phase);
        self
    }

    /// Restrict to payloads of at least `words` words.
    pub fn with_min_words(mut self, words: usize) -> Self {
        self.min_words = words;
        self
    }
}

/// One planned fault: a [`Target`] plus the [`FaultKind`] to apply.
#[derive(Debug, Clone, PartialEq)]
pub struct Injection {
    /// Which operation to hit.
    pub target: Target,
    /// What to do to it.
    pub kind: FaultKind,
}

/// Per-operation injection probabilities for seeded random campaigns.
/// Each rate is the probability (in `[0, 1]`) that an *applicable*
/// operation is hit; draws are keyed on `(seed, salt, rank, seq)` so a
/// campaign replays bitwise from its seed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Bit-flip probability per all-reduce contribution / halo send.
    pub bitflip: f64,
    /// Transient-failure probability per all-reduce (replicated: keyed
    /// without the rank).
    pub opfail: f64,
    /// Drop probability per p2p send.
    pub drop: f64,
    /// Duplicate probability per p2p send.
    pub duplicate: f64,
    /// Stall probability per all-reduce / halo send.
    pub stall: f64,
    /// Stall duration in milliseconds (applies to sampled stalls).
    pub stall_millis: u64,
}

/// A seeded, replayable fault schedule, shared by (a replica on) every
/// rank's [`FaultyComm`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the sampled draws.
    pub seed: u64,
    /// Sampled injection rates (all zero = explicit injections only).
    pub rates: FaultRates,
    /// Phase filter for the sampled rates (`None` = all phases).
    pub rate_phase: Option<&'static str>,
    /// Explicitly targeted injections.
    pub explicit: Vec<Injection>,
}

impl FaultPlan {
    /// The empty plan: a [`FaultyComm`] driven by it is bitwise identical
    /// to its inner communicator.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan with seeded random injection at the given rates.
    pub fn from_seed(seed: u64, rates: FaultRates) -> Self {
        Self {
            seed,
            rates,
            ..Self::default()
        }
    }

    /// Add one explicit injection (builder style).
    pub fn with(mut self, target: Target, kind: FaultKind) -> Self {
        self.explicit.push(Injection { target, kind });
        self
    }

    /// Whether the plan can ever fire.
    pub fn is_empty(&self) -> bool {
        let r = &self.rates;
        self.explicit.is_empty()
            && r.bitflip == 0.0
            && r.opfail == 0.0
            && r.drop == 0.0
            && r.duplicate == 0.0
            && r.stall == 0.0
    }

    fn validate(&self) {
        for inj in &self.explicit {
            if matches!(inj.kind, FaultKind::OpFail) {
                assert!(
                    inj.target.rank.is_none(),
                    "OpFail must not be rank-targeted: a collective failure is observed \
                     by every rank, and a divergent injection would deadlock recovery"
                );
                assert!(
                    inj.target.op == OpKind::Allreduce,
                    "OpFail applies to all-reduces only"
                );
            }
            if matches!(
                inj.kind,
                FaultKind::DropMessage | FaultKind::DuplicateMessage
            ) {
                assert!(
                    inj.target.op == OpKind::Send,
                    "drop/duplicate apply to sends"
                );
            }
        }
    }
}

thread_local! {
    /// The solver-phase tag of the current rank thread (each simulated rank
    /// is one thread, so a thread-local is exactly per-rank state).
    static PHASE: Cell<&'static str> = const { Cell::new("") };
}

/// Tag subsequent operations on this rank thread with a solver phase
/// (e.g. `"mpk"`, `"ortho"`, `"residual"`); plans filter on it.
pub fn set_phase(phase: &'static str) {
    PHASE.with(|p| p.set(phase));
}

/// The phase tag currently in effect on this thread (`""` = none).
pub fn current_phase() -> &'static str {
    PHASE.with(|p| p.get())
}

/// One injected fault, as it happened.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Rank the event occurred on.
    pub rank: usize,
    /// Operation kind hit.
    pub op: OpKind,
    /// Per-kind sequence number of the victim operation on this rank.
    pub seq: u64,
    /// Solver phase tag in effect.
    pub phase: &'static str,
    /// What was done.
    pub kind: FaultKind,
    /// Payload words of the victim operation.
    pub words: usize,
}

/// splitmix64 — the draw keyed on `(seed, salt, rank, seq)`; execution-order
/// independent, so sampled campaigns replay bitwise.
fn mix(seed: u64, salt: u64, rank: u64, seq: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(rank.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(seq);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Map a draw to `[0, 1)` (53 mantissa bits, like the rand shim).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const SALT_BITFLIP: u64 = 1;
const SALT_OPFAIL: u64 = 2;
const SALT_DROP: u64 = 3;
const SALT_DUP: u64 = 4;
const SALT_STALL: u64 = 5;
const SALT_WORD: u64 = 6;
const SALT_BIT: u64 = 7;
/// Rank key for draws that must be identical on every rank.
const ALL_RANKS: u64 = u64::MAX;

/// A fault-injecting wrapper over any [`Communicator`].
///
/// Pass [`FaultyComm::wrap`]'s result wherever an `Arc<dyn Communicator>`
/// goes; keep a clone of the concrete `Arc<FaultyComm>` to read
/// [`events`](Self::events) afterwards.  With [`FaultPlan::none`] the
/// wrapper is bitwise transparent (asserted by the workspace's
/// fault-tolerance property tests).
#[derive(Debug)]
pub struct FaultyComm {
    inner: Arc<dyn Communicator>,
    plan: FaultPlan,
    /// Per-[`OpKind`] sequence counters (indexed by discriminant).
    seqs: [AtomicU64; 2],
    /// Per-explicit-injection match counters (aligned with `plan.explicit`).
    matches: Vec<AtomicU64>,
    events: Mutex<Vec<FaultEvent>>,
}

impl FaultyComm {
    /// Wrap `inner` with the given plan.  Panics on plans that could
    /// produce divergent collective verdicts (rank-targeted `OpFail`).
    pub fn wrap(inner: Arc<dyn Communicator>, plan: FaultPlan) -> Arc<FaultyComm> {
        plan.validate();
        let matches = plan.explicit.iter().map(|_| AtomicU64::new(0)).collect();
        Arc::new(FaultyComm {
            inner,
            plan,
            seqs: Default::default(),
            matches,
            events: Mutex::new(Vec::new()),
        })
    }

    /// Every fault injected so far on this rank, in injection order.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.events
            .lock()
            .expect("fault event log poisoned")
            .clone()
    }

    /// Number of faults injected so far on this rank.
    pub fn injected(&self) -> usize {
        self.events.lock().expect("fault event log poisoned").len()
    }

    fn record(&self, op: OpKind, seq: u64, kind: FaultKind, words: usize) {
        trace::instant("fault", kind.label(), &[("op", op as u64), ("seq", seq)]);
        self.events
            .lock()
            .expect("fault event log poisoned")
            .push(FaultEvent {
                rank: self.inner.rank(),
                op,
                seq,
                phase: current_phase(),
                kind,
                words,
            });
    }

    /// Collect the faults applicable to the current operation, in a fixed
    /// deterministic order (explicit entries first, then sampled draws).
    fn faults_for(&self, op: OpKind, seq: u64, words: usize) -> Vec<FaultKind> {
        let mut fired = Vec::new();
        if self.plan.is_empty() {
            return fired;
        }
        let rank = self.inner.rank();
        let phase = current_phase();
        for (inj, count) in self.plan.explicit.iter().zip(&self.matches) {
            let t = &inj.target;
            if t.op != op
                || t.rank.is_some_and(|r| r != rank)
                || t.phase.is_some_and(|p| p != phase)
                || words < t.min_words
            {
                continue;
            }
            let match_idx = count.fetch_add(1, Ordering::Relaxed);
            if match_idx == t.seq {
                fired.push(inj.kind);
            }
        }
        let rates = &self.plan.rates;
        let phase_ok = self.plan.rate_phase.is_none_or(|p| p == phase);
        if phase_ok {
            let s = self.plan.seed;
            let r = rank as u64;
            if op == OpKind::Allreduce {
                if rates.bitflip > 0.0 && unit(mix(s, SALT_BITFLIP, r, seq)) < rates.bitflip {
                    fired.push(self.sampled_flip(seq));
                }
                // Replicated draw: every rank sees the same failed collective.
                if rates.opfail > 0.0 && unit(mix(s, SALT_OPFAIL, ALL_RANKS, seq)) < rates.opfail {
                    fired.push(FaultKind::OpFail);
                }
            }
            if op == OpKind::Send {
                if rates.bitflip > 0.0 && unit(mix(s, SALT_BITFLIP, r, seq)) < rates.bitflip {
                    fired.push(self.sampled_flip(seq));
                }
                if rates.drop > 0.0 && unit(mix(s, SALT_DROP, r, seq)) < rates.drop {
                    fired.push(FaultKind::DropMessage);
                }
                if rates.duplicate > 0.0 && unit(mix(s, SALT_DUP, r, seq)) < rates.duplicate {
                    fired.push(FaultKind::DuplicateMessage);
                }
            }
            if rates.stall > 0.0 && unit(mix(s, SALT_STALL, r, seq)) < rates.stall {
                fired.push(FaultKind::Stall {
                    millis: rates.stall_millis,
                });
            }
        }
        fired
    }

    fn sampled_flip(&self, seq: u64) -> FaultKind {
        let rank = self.inner.rank() as u64;
        FaultKind::BitFlip {
            word: Some(mix(self.plan.seed, SALT_WORD, rank, seq) as usize),
            bit: (mix(self.plan.seed, SALT_BIT, rank, seq) % 64) as u32,
        }
    }

    fn next_seq(&self, op: OpKind) -> u64 {
        self.seqs[op as usize].fetch_add(1, Ordering::Relaxed)
    }

    fn flip(buf: &mut [f64], word: Option<usize>, bit: u32, seq: u64) {
        if buf.is_empty() {
            return;
        }
        let w = word.unwrap_or(seq as usize) % buf.len();
        buf[w] = f64::from_bits(buf[w].to_bits() ^ (1u64 << (bit % 64)));
    }

    /// Run the all-reduce `run` on `buf` with this operation's faults
    /// applied around it: stalls and contribution bit-flips before, an
    /// OpFail's poison after.
    fn allreduce(&self, buf: &mut [f64], run: impl FnOnce(&mut [f64])) {
        let op = OpKind::Allreduce;
        let seq = self.next_seq(op);
        let mut poison = false;
        for kind in self.faults_for(op, seq, buf.len()) {
            self.record(op, seq, kind, buf.len());
            match kind {
                FaultKind::Stall { millis } => std::thread::sleep(Duration::from_millis(millis)),
                FaultKind::BitFlip { word, bit } => Self::flip(buf, word, bit, seq),
                FaultKind::OpFail => poison = true,
                // `validate` and the sampler keep these off all-reduces.
                FaultKind::DropMessage | FaultKind::DuplicateMessage => {}
            }
        }
        run(buf);
        if poison {
            buf.fill(f64::NAN);
        }
    }
}

impl Communicator for FaultyComm {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn allreduce_sum(&self, buf: &mut [f64]) {
        self.allreduce(buf, |b| self.inner.allreduce_sum(b));
    }

    fn allreduce_sum_retry(&self, buf: &mut [f64]) {
        // Retries are operations like any other: they advance the sequence
        // counter and are themselves injectable.
        self.allreduce(buf, |b| self.inner.allreduce_sum_retry(b));
    }

    fn broadcast(&self, root: usize, buf: &mut [f64]) {
        self.inner.broadcast(root, buf);
    }

    fn allgather(&self, send: &[f64], recv: &mut [f64]) {
        self.inner.allgather(send, recv);
    }

    fn barrier(&self) {
        self.inner.barrier();
    }

    fn send(&self, to: usize, data: &[f64]) {
        let op = OpKind::Send;
        let seq = self.next_seq(op);
        let mut payload = data.to_vec();
        let mut copies = 1usize;
        for kind in self.faults_for(op, seq, data.len()) {
            self.record(op, seq, kind, data.len());
            match kind {
                FaultKind::Stall { millis } => std::thread::sleep(Duration::from_millis(millis)),
                FaultKind::BitFlip { word, bit } => Self::flip(&mut payload, word, bit, seq),
                FaultKind::DropMessage => copies = 0,
                FaultKind::DuplicateMessage => {
                    if copies > 0 {
                        copies = 2;
                    }
                }
                // `validate` and the sampler keep OpFail off sends.
                FaultKind::OpFail => {}
            }
        }
        if copies == 0 {
            // The sender believes it sent: keep the audit trail identical
            // to a successful send, the network just ate the message.
            self.inner.stats().record_p2p(data.len());
            return;
        }
        for _ in 0..copies {
            self.inner.send(to, &payload);
        }
    }

    fn recv(&self, from: usize) -> Vec<f64> {
        self.inner.recv(from)
    }

    fn recv_timeout(&self, from: usize, timeout: Duration) -> Result<Vec<f64>, CommError> {
        self.inner.recv_timeout(from, timeout)
    }

    fn stats(&self) -> &CommStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::SerialComm;
    use crate::thread::run_ranks;

    #[test]
    fn empty_plan_is_transparent() {
        let comm = FaultyComm::wrap(SerialComm::new(), FaultPlan::none());
        let mut buf = [1.0, 2.0, 3.0];
        comm.allreduce_sum(&mut buf);
        assert_eq!(buf, [1.0, 2.0, 3.0]);
        assert_eq!(comm.injected(), 0);
        assert_eq!(comm.stats().snapshot().allreduces, 1);
    }

    #[test]
    fn explicit_bitflip_hits_exactly_the_targeted_op() {
        let plan = FaultPlan::none().with(
            Target::nth(OpKind::Allreduce, 1),
            FaultKind::BitFlip {
                word: Some(0),
                bit: 63,
            },
        );
        let comm = FaultyComm::wrap(SerialComm::new(), plan);
        let mut a = [2.0];
        comm.allreduce_sum(&mut a);
        assert_eq!(a, [2.0], "op 0 untouched");
        let mut b = [2.0];
        comm.allreduce_sum(&mut b);
        assert_eq!(b, [-2.0], "op 1 sign-flipped");
        let mut c = [2.0];
        comm.allreduce_sum(&mut c);
        assert_eq!(c, [2.0], "op 2 untouched");
        let events = comm.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].op, OpKind::Allreduce);
        assert_eq!(events[0].seq, 1);
    }

    #[test]
    fn phase_filter_counts_only_matching_ops() {
        let plan = FaultPlan::none().with(
            Target::nth(OpKind::Allreduce, 0).in_phase("ortho"),
            FaultKind::BitFlip {
                word: Some(0),
                bit: 63,
            },
        );
        let comm = FaultyComm::wrap(SerialComm::new(), plan);
        set_phase("mpk");
        let mut a = [1.0];
        comm.allreduce_sum(&mut a);
        assert_eq!(a, [1.0], "wrong phase is not counted or hit");
        set_phase("ortho");
        let mut b = [1.0];
        comm.allreduce_sum(&mut b);
        assert_eq!(b, [-1.0], "first ortho-phase reduce is hit");
        set_phase("");
    }

    #[test]
    fn min_words_filter_skips_small_payloads() {
        let plan = FaultPlan::none().with(
            Target::nth(OpKind::Allreduce, 0).with_min_words(4),
            FaultKind::BitFlip {
                word: Some(2),
                bit: 63,
            },
        );
        let comm = FaultyComm::wrap(SerialComm::new(), plan);
        let mut small = [1.0];
        comm.allreduce_sum(&mut small);
        assert_eq!(small, [1.0]);
        let mut big = [1.0; 5];
        comm.allreduce_sum(&mut big);
        assert_eq!(big[2], -1.0, "first big-enough reduce is hit");
    }

    #[test]
    fn contribution_flip_is_replicated_across_ranks() {
        // A flipped contribution on rank 0 must produce the *same*
        // corrupted sum on every rank — the property the collective
        // retry protocol relies on.
        let results = run_ranks(3, |comm| {
            let plan = FaultPlan::none().with(
                Target::nth(OpKind::Allreduce, 0).on_rank(0),
                FaultKind::BitFlip {
                    word: Some(0),
                    bit: 63,
                },
            );
            let faulty = FaultyComm::wrap(comm, plan);
            let mut buf = [1.0];
            faulty.allreduce_sum(&mut buf);
            buf[0]
        });
        assert!(results.iter().all(|&x| x == results[0]));
        assert_eq!(results[0], 1.0, "3 - corrupted 1 + 1 + 1 = 1");
    }

    #[test]
    fn opfail_poisons_every_rank() {
        let results = run_ranks(2, |comm| {
            let plan = FaultPlan::none().with(Target::nth(OpKind::Allreduce, 0), FaultKind::OpFail);
            let faulty = FaultyComm::wrap(comm, plan);
            let mut buf = [1.0, 2.0];
            faulty.allreduce_sum(&mut buf);
            buf
        });
        for r in &results {
            assert!(r.iter().all(|v| v.is_nan()));
        }
    }

    #[test]
    #[should_panic(expected = "OpFail must not be rank-targeted")]
    fn rank_targeted_opfail_is_rejected() {
        FaultyComm::wrap(
            SerialComm::new(),
            FaultPlan::none().with(
                Target::nth(OpKind::Allreduce, 0).on_rank(1),
                FaultKind::OpFail,
            ),
        );
    }

    #[test]
    fn dropped_message_never_arrives_but_is_tallied() {
        let results = run_ranks(2, |comm| {
            let plan = FaultPlan::none().with(
                Target::nth(OpKind::Send, 0).on_rank(0),
                FaultKind::DropMessage,
            );
            let faulty = FaultyComm::wrap(comm, plan);
            if faulty.rank() == 0 {
                faulty.send(1, &[1.0]); // dropped
                faulty.send(1, &[2.0]); // delivered
                (faulty.stats().snapshot().p2p_messages, Vec::new())
            } else {
                (0, faulty.recv(0))
            }
        });
        assert_eq!(results[0].0, 2, "the sender's audit trail sees both sends");
        assert_eq!(results[1].1, vec![2.0], "only the second message arrives");
    }

    #[test]
    fn duplicated_message_arrives_twice() {
        let results = run_ranks(2, |comm| {
            let plan = FaultPlan::none().with(
                Target::nth(OpKind::Send, 0).on_rank(0),
                FaultKind::DuplicateMessage,
            );
            let faulty = FaultyComm::wrap(comm, plan);
            if faulty.rank() == 0 {
                faulty.send(1, &[1.0]);
                Vec::new()
            } else {
                vec![faulty.recv(0), faulty.recv(0)]
            }
        });
        assert_eq!(results[1], vec![vec![1.0], vec![1.0]]);
    }

    #[test]
    fn sampled_campaign_replays_bitwise_from_its_seed() {
        let run = || {
            let comm = FaultyComm::wrap(
                SerialComm::new(),
                FaultPlan::from_seed(
                    42,
                    FaultRates {
                        bitflip: 0.5,
                        ..FaultRates::default()
                    },
                ),
            );
            let mut outs = Vec::new();
            for i in 0..32 {
                let mut buf = [i as f64, -(i as f64)];
                comm.allreduce_sum(&mut buf);
                outs.push(buf);
            }
            (outs, comm.injected())
        };
        let (a, na) = run();
        let (b, nb) = run();
        assert_eq!(a, b, "same seed, same corruption, bit for bit");
        assert_eq!(na, nb);
        assert!(na > 0, "rate 0.5 over 32 ops must fire");
        assert!(na < 32, "rate 0.5 over 32 ops must also miss");
        // A different seed gives a different schedule.
        let comm = FaultyComm::wrap(
            SerialComm::new(),
            FaultPlan::from_seed(
                43,
                FaultRates {
                    bitflip: 0.5,
                    ..FaultRates::default()
                },
            ),
        );
        let mut outs = Vec::new();
        for i in 0..32 {
            let mut buf = [i as f64, -(i as f64)];
            comm.allreduce_sum(&mut buf);
            outs.push(buf);
        }
        assert_ne!(a, outs);
    }
}
