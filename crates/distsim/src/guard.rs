//! Low-overhead fault-detection guards and in-place recovery.
//!
//! The s-step solver's communication surface is tiny — Gram-matrix
//! all-reduces, one-word norm reduces, and the halo exchange of the
//! matrix-powers kernel — and each of those carries algebraic structure
//! that a fault almost certainly breaks.  The guards exploit that
//! structure instead of paying for generic duplication:
//!
//! * **Gram screen** — the reduced Gram matrix `Vᵀ·V` is *bitwise*
//!   symmetric: each rank's local contribution `dense::gram` fills both
//!   triangles from one fused product, and the rank-ordered collective sum
//!   preserves the bit pattern.  Any single corrupted off-diagonal word
//!   breaks symmetry; diagonal words must be finite and non-negative
//!   (they are sums of squares).  Cost: an `O(s²)` comparison per reduce,
//!   no extra communication.
//! * **Duplicated norm words** — a residual-norm reduce is the diagonal of
//!   the residuals' Gram; symmetry degenerates, so the contribution is sent
//!   twice in one payload (`[sq…, sq…]`, still one reduction).  A single
//!   flip anywhere makes the two replicated halves differ bitwise.
//! * **Halo checksum** — each halo message is framed with a per-peer
//!   sequence number and a mixed XOR checksum.  A flipped bit anywhere in
//!   the frame is detected; a dropped message surfaces as a sequence gap
//!   or a receive timeout; a duplicated message is discarded exactly.
//!
//! Detection verdicts on collectives are **replicated** by construction —
//! every screen reads only the post-reduce buffer, which is identical on
//! all ranks — so the bounded retry
//! ([`Communicator::allreduce_sum_retry`]) is itself a safe collective and
//! recovery collectives cannot deadlock.  Recovery is a ladder:
//!
//! 1. **retry** — a detected collective fault is retried from the saved
//!    clean local contributions, at most twice; a successful retry is a
//!    bitwise in-place repair with zero iteration overhead
//!    (`tests/fault_tolerance.rs::failed_collective_is_retried_and_bitwise_repaired`);
//! 2. **poison** — when retries are exhausted (or a halo message is
//!    unrecoverable) the payload is filled with NaN, which flows into the
//!    next Cholesky factorization as a breakdown;
//! 3. **rollback** — the solver's breakdown handling restarts the cycle
//!    from the last restart vector;
//! 4. **degrade** — repeated distress lets the step controller
//!    (`ssgmres::control`) shrink `s`, as it does for numerical
//!    breakdowns.
//!
//! Each guard changes some outcome of the `faults` campaign when it is
//! switched off alone; an ablation over its 2 headline and 24 grid cells,
//! recorded in CHANGES.md, found:
//!
//! | guard | catches | without it |
//! |---|---|---|
//! | Gram screen | failed all-reduces, flipped Gram words | high-rate `opfail` cells in `any` and `ortho` stop converging |
//! | duplicated norm words | a flipped bit in a residual-norm reduce | `sdc_norm` reports convergence at a true relres of about 1e148 |
//! | halo sequence numbers + timeout | dropped and duplicated halo messages | every `drop` cell hangs in a receive; every `duplicate` cell diverges |
//! | halo checksum | flipped halo words | no cell gets worse (whether it stays is an open ROADMAP item) |
//!
//! No guard checks that ranks agree on a replicated scalar: the fault
//! model corrupts what a rank puts on the wire, and every rank reads the
//! same reduced bits (see [`crate::fault`]), so a replicated value cannot
//! diverge across ranks.  Convergence is decided on the true residual the
//! solver recomputes every cycle.
//!
//! The guards are a communicator decorator, the twin of
//! [`FaultyComm`](crate::FaultyComm): [`GuardedComm::wrap`] puts all of
//! them around any [`Communicator`] (outside the fault injector, as
//! `GuardedComm::wrap(FaultyComm::wrap(raw, plan), halo_timeout)`), and the code
//! that communicates names only what a buffer holds —
//! [`Communicator::allreduce_screened`] with a [`Screen`], and
//! [`Communicator::recv_halo`].  On any other communicator those are the
//! plain operations, so an unwrapped solve never meets a guard, and at
//! zero faults a guarded solve runs the same code on the same bits
//! (`tests/fault_tolerance.rs::guards_at_zero_faults_add_zero_reductions_and_stay_bitwise`).

use crate::comm::{CommError, Communicator};
use crate::stats::CommStats;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// How many times a failed collective is retried before its payload is
/// poisoned and the cycle rolled back.
const MAX_RETRIES: usize = 2;

/// What a reduce's payload should look like when healthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Screen {
    /// The payload ends (at `offset`) with an `s × s` column-major Gram
    /// block: everything finite, block bitwise symmetric, diagonal
    /// non-negative.
    Gram {
        /// Start of the Gram block within the payload.
        offset: usize,
        /// Block dimension.
        s: usize,
    },
    /// The payload is a vector of squared norms.  Guarded, it is sent
    /// duplicated as `[sq…, sq…]` in the same reduce: finite,
    /// bitwise-equal halves, non-negative.
    Norms,
}

fn screen_ok(buf: &[f64], screen: Screen) -> bool {
    match screen {
        _ if buf.iter().any(|v| !v.is_finite()) => false,
        Screen::Norms => {
            let (sq, copy) = buf.split_at(buf.len() / 2);
            sq.iter()
                .zip(copy)
                .all(|(a, b)| a.to_bits() == b.to_bits() && *a >= 0.0)
        }
        Screen::Gram { offset, s } => {
            let g = &buf[offset..offset + s * s];
            for i in 0..s {
                if g[i * s + i] < 0.0 {
                    return false;
                }
                for j in (i + 1)..s {
                    if g[i * s + j].to_bits() != g[j * s + i].to_bits() {
                        return false;
                    }
                }
            }
            true
        }
    }
}

/// One detected fault, as the guards saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardEvent {
    /// Which guard fired: `"gram_screen"`, `"norm_dup"`,
    /// `"halo_checksum"`, `"halo_seq"`, `"halo_timeout"`.
    pub guard: &'static str,
    /// Solver phase tag in effect (see [`crate::fault::set_phase`]).
    pub phase: &'static str,
    /// `"recovered"` (fixed in place), `"poisoned"` (handed to the
    /// cycle-rollback ladder), or `"unrecovered"`.
    pub outcome: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

/// Snapshot of a [`GuardedComm`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardCounts {
    /// Faults detected by any guard.
    pub detected: usize,
    /// Faults fully recovered in place (successful retry, discarded
    /// duplicate).
    pub recovered: usize,
    /// Faults that exhausted in-place recovery and were handed to the
    /// cycle-rollback ladder as poisoned payloads (pending resolution).
    pub poisoned: usize,
    /// Faults that defeated the ladder.
    pub unrecovered: usize,
}

impl GuardCounts {
    /// The guard activity between `earlier` and these counts.
    pub fn since(&self, earlier: &GuardCounts) -> GuardCounts {
        GuardCounts {
            detected: self.detected - earlier.detected,
            recovered: self.recovered - earlier.recovered,
            poisoned: self.poisoned - earlier.poisoned,
            unrecovered: self.unrecovered - earlier.unrecovered,
        }
    }
}

/// Everything a [`GuardedComm`] remembers.  One rank thread drives each
/// communicator, so one lock serves all of it.
#[derive(Debug, Default)]
struct GuardState {
    counts: GuardCounts,
    /// The fault-event log, in detection order: one event per detection.
    events: Vec<GuardEvent>,
    /// Next halo sequence number per destination peer.
    send_seq: HashMap<usize, u64>,
    /// Next expected halo sequence number per source peer.
    recv_seq: HashMap<usize, u64>,
    /// Early-arrived halo frames per source peer, keyed by sequence number.
    stash: HashMap<usize, BTreeMap<u64, Vec<f64>>>,
}

/// A guarding wrapper over any [`Communicator`]:
/// [`allreduce_screened`](Communicator::allreduce_screened) screens,
/// retries and poisons,
/// [`send`](Communicator::send) frames the halo messages
/// [`recv_halo`](Communicator::recv_halo) checks, and every other
/// operation, plain `allreduce_sum` included, passes through untouched.
/// The counters and the event log live as long as the communicator, so a
/// solve reads them as a delta from [`counts`](Self::counts) taken when it
/// starts.
#[derive(Debug)]
pub struct GuardedComm {
    inner: Arc<dyn Communicator>,
    halo_timeout: Duration,
    state: Mutex<GuardState>,
}

impl GuardedComm {
    /// Wrap `inner` with every guard; a guarded halo receive waits at most
    /// `halo_timeout` before it writes the message off.  Wrap last: another
    /// decorator around this one (a [`FaultyComm`](crate::FaultyComm))
    /// would hide the guards from the code that communicates through it.
    pub fn wrap(inner: Arc<dyn Communicator>, halo_timeout: Duration) -> Arc<GuardedComm> {
        Arc::new(GuardedComm {
            inner,
            halo_timeout,
            state: Mutex::default(),
        })
    }

    fn state(&self) -> MutexGuard<'_, GuardState> {
        self.state.lock().expect("guard state poisoned")
    }

    /// Current counter values.
    pub fn counts(&self) -> GuardCounts {
        self.state().counts
    }

    /// The fault events detected after `base` was taken, in detection
    /// order.
    pub fn events_since(&self, base: &GuardCounts) -> Vec<GuardEvent> {
        self.state().events[base.detected..].to_vec()
    }

    fn record(&self, guard: &'static str, outcome: &'static str, detail: String) {
        trace::instant("guard", guard, &[]);
        let mut state = self.state();
        let c = &mut state.counts;
        c.detected += 1;
        *match outcome {
            "recovered" => &mut c.recovered,
            "poisoned" => &mut c.poisoned,
            _ => &mut c.unrecovered,
        } += 1;
        state.events.push(GuardEvent {
            guard,
            phase: crate::fault::current_phase(),
            outcome,
            detail,
        });
    }

    /// Resolve `n` pending poisoned faults: the solver calls this when the
    /// cycle rollback that absorbs them completes (recovered) or when it
    /// gives up (unrecovered).
    pub fn resolve_poisoned(&self, n: usize, recovered: bool) {
        let c = &mut self.state().counts;
        let n = n.min(c.poisoned);
        c.poisoned -= n;
        *if recovered {
            &mut c.recovered
        } else {
            &mut c.unrecovered
        } += n;
    }

    // ----- guarded collectives ---------------------------------------------

    /// One screened reduce of `buf` (already in its on-the-wire shape):
    /// screens the replicated result, retries boundedly on detection, and
    /// poisons the buffer with NaN when retries are exhausted.  Returns
    /// `false` when poisoned.  Exactly one reduction in the fault-free
    /// case.
    fn screened(&self, buf: &mut [f64], screen: Screen) -> bool {
        let n = buf.len();
        let saved = buf.to_vec();
        self.inner.allreduce_sum(buf);
        let mut ok = screen_ok(buf, screen);
        if ok {
            return true;
        }
        let mut attempts = 0;
        while !ok && attempts < MAX_RETRIES {
            attempts += 1;
            buf.copy_from_slice(&saved);
            self.inner.allreduce_sum_retry(buf);
            ok = screen_ok(buf, screen);
        }
        let guard = match screen {
            Screen::Norms => "norm_dup",
            Screen::Gram { .. } => "gram_screen",
        };
        if ok {
            let detail = format!("corrupted {n}-word reduce recovered after {attempts} retr(ies)");
            self.record(guard, "recovered", detail);
        } else {
            let detail = format!(
                "{n}-word reduce still corrupt after {attempts} retr(ies); \
                 payload poisoned for cycle rollback"
            );
            self.record(guard, "poisoned", detail);
            buf.fill(f64::NAN);
        }
        ok
    }
}

impl Communicator for GuardedComm {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn allreduce_sum(&self, buf: &mut [f64]) {
        self.inner.allreduce_sum(buf);
    }

    fn allreduce_sum_retry(&self, buf: &mut [f64]) {
        self.inner.allreduce_sum_retry(buf);
    }

    /// Runs `screen` on the reduced payload (squared norms travel
    /// duplicated).
    fn allreduce_screened(&self, buf: &mut [f64], screen: Screen) -> bool {
        match screen {
            Screen::Norms => {
                let mut dup = [&*buf, &*buf].concat();
                let ok = self.screened(&mut dup, Screen::Norms);
                buf.copy_from_slice(&dup[..buf.len()]);
                ok
            }
            Screen::Gram { .. } => self.screened(buf, screen),
        }
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

    /// Frames `data` as `[seq, checksum, data…]` for
    /// [`recv_halo`](Communicator::recv_halo) to check.
    fn send(&self, to: usize, data: &[f64]) {
        let seq = next_seq(&mut self.state().send_seq, to);
        self.inner.send(to, &encode_halo_frame(seq, data));
    }

    fn recv(&self, from: usize) -> Vec<f64> {
        self.inner.recv(from)
    }

    fn recv_timeout(&self, from: usize, timeout: Duration) -> Result<Vec<f64>, CommError> {
        self.inner.recv_timeout(from, timeout)
    }

    /// Returns `None` when this round's message is written off (timeout, checksum mismatch, or a sequence gap proving
    /// a drop) — the caller poisons the affected ghost values, and the NaN
    /// cascade hands the cycle to the rollback ladder.  Duplicated messages
    /// are discarded exactly; early-arrived frames are stashed for their
    /// round.
    fn recv_halo(&self, from: usize, words: usize) -> Option<Vec<f64>> {
        let expected = {
            let mut state = self.state();
            // One logical message per round: written off or delivered, the
            // round is consumed.
            let s = next_seq(&mut state.recv_seq, from);
            let early = state.stash.get_mut(&from);
            if let Some(frame) = early.and_then(|pending| pending.remove(&s)) {
                return Some(frame);
            }
            s
        };
        loop {
            let frame = match self.inner.recv_timeout(from, self.halo_timeout) {
                Ok(frame) => frame,
                Err(err) => {
                    self.record("halo_timeout", "poisoned", err.to_string());
                    return None;
                }
            };
            let Some((seq, payload)) = decode_halo_frame(&frame) else {
                self.record(
                    "halo_checksum",
                    "poisoned",
                    format!("corrupt halo frame from rank {from} (round {expected})"),
                );
                return None;
            };
            if payload.len() != words {
                self.record(
                    "halo_checksum",
                    "poisoned",
                    format!(
                        "halo frame from rank {from}: {} words, expected {words}",
                        payload.len()
                    ),
                );
                return None;
            }
            match seq.cmp(&expected) {
                std::cmp::Ordering::Equal => return Some(payload.to_vec()),
                std::cmp::Ordering::Less => {
                    // A duplicate (or a stalled message from a written-off
                    // round): discard and keep waiting — full recovery.
                    self.record(
                        "halo_seq",
                        "recovered",
                        format!("discarded duplicate halo frame {seq} from rank {from}"),
                    );
                }
                std::cmp::Ordering::Greater => {
                    // Sequence gap: this round's message was dropped and a
                    // later round's frame arrived early.  Stash it for its
                    // round and write this round off.
                    self.state()
                        .stash
                        .entry(from)
                        .or_default()
                        .insert(seq, payload.to_vec());
                    self.record(
                        "halo_seq",
                        "poisoned",
                        format!(
                            "halo frame {expected} from rank {from} missing \
                             (frame {seq} arrived instead: message dropped)"
                        ),
                    );
                    return None;
                }
            }
        }
    }

    fn guards(&self) -> Option<&GuardedComm> {
        Some(self)
    }

    fn stats(&self) -> &CommStats {
        self.inner.stats()
    }
}

/// Post-increment the halo sequence counter of `peer`.
fn next_seq(seqs: &mut HashMap<usize, u64>, peer: usize) -> u64 {
    let c = seqs.entry(peer).or_insert(0);
    *c += 1;
    *c - 1
}

/// Mix a sequence number and payload bits into a 64-bit checksum.  Word
/// positions are rotated into the fold so reordered or displaced words are
/// caught, not just flipped bits.
fn halo_checksum(seq: u64, payload: &[f64]) -> u64 {
    let mut c = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD6E8_FEB8_6659_FD93;
    for (i, w) in payload.iter().enumerate() {
        c ^= w.to_bits().rotate_left((i % 63) as u32 + 1);
        c = c.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    c
}

/// Frame a guarded halo message: `[seq, checksum, payload...]`, with the
/// two control words carried as raw bit patterns (the transport moves
/// `f64` words verbatim, so NaN-pattern bit payloads survive).
fn encode_halo_frame(seq: u64, payload: &[f64]) -> Vec<f64> {
    let mut frame = Vec::with_capacity(payload.len() + 2);
    frame.push(f64::from_bits(seq));
    frame.push(f64::from_bits(halo_checksum(seq, payload)));
    frame.extend_from_slice(payload);
    frame
}

/// Decode a guarded halo frame; `None` when the checksum does not match
/// (a flipped bit anywhere in the frame, including the control words).
fn decode_halo_frame(frame: &[f64]) -> Option<(u64, &[f64])> {
    if frame.len() < 2 {
        return None;
    }
    let seq = frame[0].to_bits();
    let checksum = frame[1].to_bits();
    let payload = &frame[2..];
    if halo_checksum(seq, payload) != checksum {
        return None;
    }
    Some((seq, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan, FaultyComm, OpKind, Target};
    use crate::serial::SerialComm;
    use crate::thread::run_ranks;

    /// Halo patience of the tests that do not wait out a timeout.
    const PATIENCE: Duration = Duration::from_secs(5);

    /// Flip bit 62 of `word` in `rank`'s contributions to the allreduces
    /// numbered `seqs`.
    fn flip_plan(rank: usize, seqs: std::ops::Range<u64>, word: usize) -> FaultPlan {
        let target = |seq| Target::nth(OpKind::Allreduce, seq).on_rank(rank);
        let flip = FaultKind::BitFlip {
            word: Some(word),
            bit: 62,
        };
        seqs.fold(FaultPlan::none(), |plan, seq| plan.with(target(seq), flip))
    }

    #[test]
    fn gram_screen_accepts_a_healthy_reduce() {
        let comm = SerialComm::new();
        let ctx = GuardedComm::wrap(comm.clone(), PATIENCE);
        // 2×2 Gram of [[1,2],[2,8]] — symmetric, nonneg diagonal.
        let mut g = [1.0, 2.0, 2.0, 8.0];
        assert!(ctx.allreduce_screened(&mut g, Screen::Gram { offset: 0, s: 2 }));
        assert_eq!(g, [1.0, 2.0, 2.0, 8.0]);
        assert_eq!(ctx.counts(), GuardCounts::default());
        assert_eq!(comm.stats().snapshot().allreduces, 1);
        assert_eq!(comm.stats().snapshot().allreduce_retries, 0);
    }

    #[test]
    fn gram_screen_detects_and_retries_a_contribution_flip() {
        let results = run_ranks(3, |comm| {
            // Rank 1's first allreduce contribution gets an off-diagonal
            // bit flipped; the retry (the second allreduce op) is clean.
            let faulty = FaultyComm::wrap(comm, flip_plan(1, 0..1, 1));
            let ctx = GuardedComm::wrap(faulty.clone(), PATIENCE);
            let mut g = [1.0, 2.0, 2.0, 8.0];
            let ok = ctx.allreduce_screened(&mut g, Screen::Gram { offset: 0, s: 2 });
            (ok, g, ctx.counts(), faulty.stats().snapshot())
        });
        for (ok, g, counts, stats) in results {
            assert!(ok);
            assert_eq!(g, [3.0, 6.0, 6.0, 24.0], "recovered the true sum");
            assert_eq!(counts.detected, 1);
            assert_eq!(counts.recovered, 1);
            assert_eq!(stats.allreduces, 1, "retries audit separately");
            assert_eq!(stats.allreduce_retries, 1);
        }
    }

    #[test]
    fn exhausted_retries_poison_the_payload() {
        let results = run_ranks(2, |comm| {
            // Flip every allreduce this rank-0 issues (seq 0, 1, 2): the
            // first attempt and both retries stay corrupt.
            let plan = flip_plan(0, 0..3, 1);
            let ctx = GuardedComm::wrap(FaultyComm::wrap(comm, plan), PATIENCE);
            let mut g = [1.0, 2.0, 2.0, 8.0];
            let ok = ctx.allreduce_screened(&mut g, Screen::Gram { offset: 0, s: 2 });
            (ok, g, ctx.counts(), ctx.stats().snapshot())
        });
        for (ok, g, counts, stats) in results {
            assert!(!ok);
            assert!(g.iter().all(|v| v.is_nan()), "payload poisoned");
            assert_eq!(counts.detected, 1);
            assert_eq!(counts.poisoned, 1);
            assert_eq!(stats.allreduce_retries, 2, "bounded by MAX_RETRIES");
        }
    }

    #[test]
    fn poisoned_faults_resolve_into_recovered_or_not() {
        let ctx = GuardedComm::wrap(SerialComm::new(), PATIENCE);
        ctx.record("gram_screen", "poisoned", "test".into());
        ctx.record("gram_screen", "poisoned", "test".into());
        ctx.resolve_poisoned(1, true);
        ctx.resolve_poisoned(1, false);
        let c = ctx.counts();
        assert_eq!((c.poisoned, c.recovered, c.unrecovered), (0, 1, 1));
    }

    #[test]
    fn norm_dup_catches_a_flip_in_the_one_word_reduce() {
        let results = run_ranks(2, |comm| {
            let faulty = FaultyComm::wrap(comm, flip_plan(0, 0..1, 0));
            let ctx = GuardedComm::wrap(faulty.clone(), PATIENCE);
            let mut sq = [8.0];
            ctx.allreduce_screened(&mut sq, Screen::Norms);
            let norm = sq[0].sqrt();
            (norm, ctx.counts(), faulty.stats().snapshot())
        });
        for (norm, counts, stats) in results {
            assert_eq!(norm, 4.0, "sqrt(8 + 8) recovered exactly");
            assert_eq!(counts.detected, 1);
            assert_eq!(counts.recovered, 1);
            assert_eq!(stats.allreduces, 1, "duplication costs words, not reduces");
        }
    }

    #[test]
    fn halo_frame_roundtrips_and_catches_every_single_bit_flip() {
        let payload = [1.5, -2.25, 1e-300, 0.0];
        let frame = encode_halo_frame(7, &payload);
        let (seq, got) = decode_halo_frame(&frame).expect("clean frame decodes");
        assert_eq!(seq, 7);
        assert_eq!(got, payload);
        for word in 0..frame.len() {
            for bit in 0..64 {
                let mut corrupt = frame.clone();
                corrupt[word] = f64::from_bits(corrupt[word].to_bits() ^ (1u64 << bit));
                let decoded = decode_halo_frame(&corrupt);
                match decoded {
                    None => {}
                    Some((s, p)) => {
                        // A flip in the seq word that still checksums is
                        // impossible; a flip must change something.
                        assert!(
                            s != 7 || p != payload,
                            "undetected flip at word {word} bit {bit}"
                        );
                        panic!("checksum missed a flip at word {word} bit {bit}");
                    }
                }
            }
        }
    }

    /// Rank 0 sends `sends` to rank 1, its first send hit by `fault`; rank 1
    /// receives `rounds` guarded halo messages of `words` values.  Returns
    /// each rank's deliveries and guard counts.
    fn halo_exchange(
        fault: Option<FaultKind>,
        patience: Duration,
        sends: &[&[f64]],
        rounds: usize,
        words: usize,
    ) -> Vec<(Vec<Option<Vec<f64>>>, GuardCounts)> {
        run_ranks(2, |comm| {
            let plan = fault.map_or(FaultPlan::none(), |kind| {
                FaultPlan::none().with(Target::nth(OpKind::Send, 0).on_rank(0), kind)
            });
            let ctx = GuardedComm::wrap(FaultyComm::wrap(comm, plan), patience);
            if ctx.rank() == 0 {
                sends.iter().for_each(|data| ctx.send(1, data));
                (Vec::new(), GuardCounts::default())
            } else {
                let got = (0..rounds).map(|_| ctx.recv_halo(0, words)).collect();
                (got, ctx.counts())
            }
        })
    }

    #[test]
    fn guarded_halo_delivers_in_order_payloads() {
        let results: Vec<_> = halo_exchange(None, PATIENCE, &[&[1.0, 2.0], &[3.0, 4.0]], 2, 2)
            .into_iter()
            .map(|(got, _)| got)
            .collect();
        assert_eq!(results[1], vec![Some(vec![1.0, 2.0]), Some(vec![3.0, 4.0])]);
    }

    #[test]
    fn guarded_halo_discards_duplicates_exactly() {
        let dup = Some(FaultKind::DuplicateMessage);
        let results = halo_exchange(dup, PATIENCE, &[&[1.0], &[2.0]], 2, 1);
        let (got, counts) = &results[1];
        assert_eq!(got, &vec![Some(vec![1.0]), Some(vec![2.0])]);
        assert_eq!(counts.detected, 1, "the duplicate was seen");
        assert_eq!(counts.recovered, 1, "and fully recovered");
    }

    #[test]
    fn guarded_halo_survives_a_dropped_message_via_the_stash() {
        // Round 0's frame never arrives; round 1's arrives early, proving
        // the drop without waiting out the timeout.
        let drop = Some(FaultKind::DropMessage);
        let results = halo_exchange(drop, Duration::from_secs(2), &[&[1.0], &[2.0]], 2, 1);
        let (got, counts) = &results[1];
        assert_eq!(
            got,
            &vec![None, Some(vec![2.0])],
            "round 0 written off, round 1 served from the stash"
        );
        assert_eq!(counts.detected, 1);
        assert_eq!(counts.poisoned, 1, "the drop is handed to the ladder");
    }

    #[test]
    fn guarded_halo_times_out_on_a_silent_peer() {
        // Rank 0 sends nothing.
        let results = halo_exchange(None, Duration::from_millis(50), &[], 1, 1);
        let (got, counts) = &results[1];
        let got = &got[0];
        assert_eq!(*got, None);
        assert_eq!(counts.detected, 1);
        assert_eq!(counts.poisoned, 1);
        assert_eq!(counts.recovered, 0);
    }

    #[test]
    fn guarded_halo_detects_an_in_flight_flip() {
        let flip = Some(FaultKind::BitFlip {
            word: Some(2),
            bit: 17,
        });
        let results = halo_exchange(flip, Duration::from_secs(2), &[&[1.0, 2.0]], 1, 2);
        let (got, counts) = &results[1];
        let got = &got[0];
        assert_eq!(*got, None, "corrupt frame is rejected, ghosts poisoned");
        assert_eq!(counts.detected, 1);
        assert_eq!(counts.poisoned, 1);
    }
}
