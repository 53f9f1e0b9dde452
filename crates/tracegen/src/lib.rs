//! # resim-tracegen
//!
//! Trace generation with mis-speculation modelling for ReSim
//! (Fytraki & Pnevmatikatos, DATE 2009).
//!
//! This crate is the paper's modified `sim-bpred` (§V.A): it replays a
//! correct-path dynamic instruction stream through the *same* branch
//! predictor model the timing engine uses, and after every branch whose
//! direction the predictor gets wrong it inserts a **wrong-path block** of
//! instructions tagged with the mis-speculation bit. The block starts at
//! the address fetch would actually have streamed from (the fall-through
//! of a taken branch, or the predicted target of a not-taken one), and is
//! conservatively sized "equal to Reorder Buffer size plus IFQ size" so
//! the engine's fetch never runs dry before the branch resolves.
//!
//! Both deployment modes of the paper are supported:
//!
//! * **batch** ([`generate_trace`]) — traces "prepared off-line, for
//!   example for bulk simulations with varying design parameters";
//! * **streaming** ([`TraceStream`]) — a [`resim_trace::TraceSource`]
//!   adapter that tags and expands records on the fly, the FAST-style
//!   coupled mode.
//!
//! ## Example
//!
//! ```
//! use resim_tracegen::{generate_trace, TraceGenConfig};
//! use resim_workloads::{SpecBenchmark, Workload};
//!
//! let workload = Workload::spec(SpecBenchmark::Vpr, 7);
//! let trace = generate_trace(workload, 20_000, &TraceGenConfig::default());
//! // vpr's data-dependent branches produce a visible wrong-path share.
//! assert!(trace.wrong_path_len() > 0);
//! assert_eq!(trace.correct_path_len(), 20_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod from_table;
mod stream;
mod wrongpath;

pub use cache::{CachedTrace, TraceCache, TraceKey};
pub use stream::TraceStream;
pub use wrongpath::WrongPathSynth;

use resim_bpred::{BranchPredictor, PredictorConfig, Resolution};
use resim_trace::{Trace, TraceRecord};

/// Configuration of the trace generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceGenConfig {
    /// Predictor replayed during generation (must match the engine's
    /// configuration for the tags to be meaningful).
    pub predictor: PredictorConfig,
    /// Wrong-path block length; the paper's conservative choice is
    /// `reorder buffer size + IFQ size` (16 + 16 = 32 by default).
    pub wrong_path_len: usize,
    /// Seed for wrong-path instruction synthesis.
    pub seed: u64,
}

impl TraceGenConfig {
    /// The paper's reference configuration: two-level predictor and a
    /// 32-instruction wrong-path block.
    pub fn paper() -> Self {
        Self {
            predictor: PredictorConfig::paper_two_level(),
            wrong_path_len: 32,
            seed: 0xFEED_5EED,
        }
    }

    /// A perfect-branch-prediction configuration: produces untagged
    /// traces with no wrong-path blocks (Table 1 right-hand experiment).
    pub fn perfect() -> Self {
        Self {
            predictor: PredictorConfig::perfect(),
            ..Self::paper()
        }
    }

    /// A deterministic 64-bit fingerprint of this configuration.
    ///
    /// FNV-1a over a canonical little-endian field serialization —
    /// stable across platforms, processes and Rust versions (unlike
    /// `Hash`, whose hasher is randomized). Stored in the on-disk trace
    /// container header
    /// ([`TraceFileHeader`](resim_trace::TraceFileHeader)) so a trace
    /// file can be matched back to the generator configuration that
    /// produced it: equal configs ⇒ equal fingerprints, and any field
    /// change — predictor geometry, block length, synthesis seed —
    /// changes the fingerprint.
    ///
    /// ```
    /// use resim_tracegen::TraceGenConfig;
    ///
    /// assert_eq!(TraceGenConfig::paper().fingerprint(),
    ///            TraceGenConfig::paper().fingerprint());
    /// assert_ne!(TraceGenConfig::paper().fingerprint(),
    ///            TraceGenConfig::perfect().fingerprint());
    /// ```
    pub fn fingerprint(&self) -> u64 {
        use resim_bpred::DirectionConfig;
        use resim_trace::Fnv64;

        let mut h = Fnv64::new();
        match self.predictor.direction {
            DirectionConfig::Perfect => h.write_u8(0),
            DirectionConfig::Taken => h.write_u8(1),
            DirectionConfig::NotTaken => h.write_u8(2),
            DirectionConfig::Bimodal { size } => {
                h.write_u8(3);
                h.write_u64(size as u64);
            }
            DirectionConfig::TwoLevel(t) => {
                h.write_u8(4);
                h.write_u64(t.l1_size as u64);
                h.write(&t.history_bits.to_le_bytes());
                h.write_u64(t.l2_size as u64);
                h.write_u8(u8::from(t.xor));
                h.write(&t.counter_bits.to_le_bytes());
            }
        }
        h.write_u64(self.predictor.btb.entries as u64);
        h.write_u64(self.predictor.btb.associativity as u64);
        h.write_u64(self.predictor.ras_entries as u64);
        h.write_u64(self.wrong_path_len as u64);
        h.write_u64(self.seed);
        h.finish()
    }
}

impl Default for TraceGenConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Statistics from a generation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceGenStats {
    /// Correct-path records emitted.
    pub correct_records: u64,
    /// Wrong-path records inserted.
    pub wrong_path_records: u64,
    /// Branches whose direction was mispredicted.
    pub dir_mispredicts: u64,
    /// Branches with the right direction but wrong target.
    pub misfetches: u64,
    /// Total branches replayed.
    pub branches: u64,
}

impl TraceGenStats {
    /// Wrong-path expansion factor (total / correct records).
    pub fn expansion(&self) -> f64 {
        if self.correct_records == 0 {
            0.0
        } else {
            (self.correct_records + self.wrong_path_records) as f64 / self.correct_records as f64
        }
    }
}

/// Generates a tagged trace of exactly `n_correct` correct-path records
/// (plus inserted wrong-path blocks) from `stream`.
///
/// `stream` must yield at least `n_correct` records; synthetic workloads
/// are infinite, and functional-simulator streams simply end earlier
/// (the trace is then shorter).
pub fn generate_trace(
    stream: impl IntoIterator<Item = TraceRecord>,
    n_correct: usize,
    config: &TraceGenConfig,
) -> Trace {
    let mut gen = TraceStream::new(stream.into_iter().take(n_correct), *config);
    let mut out = Vec::with_capacity(n_correct.min(1 << 20));
    use resim_trace::TraceSource;
    while let Some(r) = gen.next_record() {
        out.push(r);
    }
    Trace::from_records(out)
}

/// Core per-branch logic shared by batch and streaming modes: replays the
/// predictor and decides whether a wrong-path block follows.
#[derive(Debug, Clone)]
pub(crate) struct Tagger {
    predictor: BranchPredictor,
    stats: TraceGenStats,
}

impl Tagger {
    pub(crate) fn new(config: PredictorConfig) -> Self {
        Self {
            predictor: BranchPredictor::new(config),
            stats: TraceGenStats::default(),
        }
    }

    /// Processes one correct-path record; returns the PC a wrong-path
    /// block should start at, if this record is a mispredicted branch.
    pub(crate) fn process(&mut self, record: &TraceRecord) -> Option<u32> {
        self.stats.correct_records += 1;
        let TraceRecord::Branch(b) = record else {
            return None;
        };
        self.stats.branches += 1;
        let p = self.predictor.predict(b.pc, b.kind, b.taken, b.target);
        self.predictor.resolve(b.pc, b.kind, b.taken, b.target);
        match p.outcome() {
            Resolution::DirMispredict => {
                self.stats.dir_mispredicts += 1;
                // Fetch streams from where the wrong prediction pointed:
                // the fall-through for a wrongly-not-taken prediction of a
                // taken branch, or the predicted target (falling back to
                // the fall-through on a BTB miss) otherwise.
                let wrong_pc = if b.taken {
                    b.fallthrough()
                } else {
                    p.target().unwrap_or_else(|| b.fallthrough())
                };
                Some(wrong_pc)
            }
            Resolution::Misfetch => {
                self.stats.misfetches += 1;
                None
            }
            _ => None,
        }
    }

    pub(crate) fn count_wrong_path(&mut self, n: u64) {
        self.stats.wrong_path_records += n;
    }

    pub(crate) fn stats(&self) -> TraceGenStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resim_trace::{BranchKind, BranchRecord, OpClass, OtherRecord};

    fn alu(pc: u32) -> TraceRecord {
        TraceRecord::Other(OtherRecord {
            pc,
            class: OpClass::IntAlu,
            dest: None,
            src1: None,
            src2: None,
            wrong_path: false,
        })
    }

    fn branch(pc: u32, taken: bool, target: u32) -> TraceRecord {
        TraceRecord::Branch(BranchRecord {
            pc,
            target,
            taken,
            kind: BranchKind::Cond,
            src1: None,
            src2: None,
            wrong_path: false,
        })
    }

    #[test]
    fn config_fingerprints_are_pinned() {
        // Every RSTR header and cached cell key carries these words, so
        // they must never change.
        assert_eq!(TraceGenConfig::paper().fingerprint(), 0x85ed_6de2_03fa_67e8);
        assert_eq!(TraceGenConfig::perfect().fingerprint(), 0xfccc_2014_5b4c_9128);
    }

    /// An alternating branch the two-level predictor eventually learns.
    fn alternating_stream(n: usize) -> Vec<TraceRecord> {
        let mut v = Vec::new();
        let mut taken = false;
        for _ in 0..n / 2 {
            v.push(alu(0x100));
            v.push(branch(0x104, taken, 0x100));
            taken = !taken;
        }
        v
    }

    #[test]
    fn perfect_predictor_produces_untagged_trace() {
        let t = generate_trace(alternating_stream(1000), 1000, &TraceGenConfig::perfect());
        assert_eq!(t.wrong_path_len(), 0);
        assert_eq!(t.correct_path_len(), 1000);
    }

    #[test]
    fn mispredicts_insert_blocks_of_configured_length() {
        let cfg = TraceGenConfig {
            wrong_path_len: 8,
            ..TraceGenConfig::paper()
        };
        // A branch pattern the predictor cannot get right at first.
        let t = generate_trace(alternating_stream(200), 200, &cfg);
        assert!(t.wrong_path_len() > 0, "cold predictor must mispredict");
        assert_eq!(t.wrong_path_len() % 8, 0, "blocks come in units of 8");
        assert_eq!(t.correct_path_len(), 200);
    }

    #[test]
    fn wrong_path_block_follows_its_branch_contiguously() {
        let cfg = TraceGenConfig {
            wrong_path_len: 4,
            ..TraceGenConfig::paper()
        };
        let t = generate_trace(alternating_stream(400), 400, &cfg);
        let recs = t.records();
        for i in 0..recs.len() {
            if recs[i].wrong_path() {
                // Walk back: the tagged run must start right after a branch.
                let mut j = i;
                while j > 0 && recs[j - 1].wrong_path() {
                    j -= 1;
                }
                assert!(j > 0, "tagged block cannot start the trace");
                assert!(
                    recs[j - 1].is_branch(),
                    "tagged block must follow a branch"
                );
            }
        }
    }

    #[test]
    fn wrong_path_starts_at_wrong_continuation() {
        let cfg = TraceGenConfig {
            wrong_path_len: 4,
            ..TraceGenConfig::paper()
        };
        let t = generate_trace(alternating_stream(400), 400, &cfg);
        let recs = t.records();
        for i in 1..recs.len() {
            if recs[i].wrong_path() && !recs[i - 1].wrong_path() {
                let TraceRecord::Branch(b) = &recs[i - 1] else {
                    panic!("block must follow a branch");
                };
                if b.taken {
                    assert_eq!(
                        recs[i].pc(),
                        b.fallthrough(),
                        "wrongly-not-taken prediction streams the fall-through"
                    );
                } else {
                    assert_ne!(recs[i].pc(), b.pc + 4 + 4, "sanity");
                }
            }
        }
    }

    #[test]
    fn deterministic_generation() {
        let cfg = TraceGenConfig::paper();
        let a = generate_trace(alternating_stream(500), 500, &cfg);
        let b = generate_trace(alternating_stream(500), 500, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn expansion_reflects_mispredict_rate() {
        let cfg = TraceGenConfig::paper();
        // Heavily-biased stream: almost no mispredicts once warm.
        let mut biased = Vec::new();
        for i in 0..2000 {
            biased.push(alu(0x200));
            biased.push(branch(0x204, i % 50 == 0, 0x200));
        }
        let n = biased.len();
        let t_biased = generate_trace(biased, n, &cfg);
        let ratio_biased = t_biased.len() as f64 / t_biased.correct_path_len() as f64;
        assert!(
            ratio_biased < 1.8,
            "biased stream should expand modestly, got {ratio_biased}"
        );
    }
}
