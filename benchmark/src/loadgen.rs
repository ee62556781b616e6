//! Input generation for the service workloads: the op stream, the
//! reader's probe keys, and open-loop scheduling with lateness
//! accounting. Everything here is a pure function of the workload seed.

use replend_types::hash::{salted, splitmix64};
use replend_types::{Feedback, PeerId};

/// A splitmix64 stream: the benchmark's only source of randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, salted by `stream` so independent consumers
    /// of one seed never share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(salted(seed, stream))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Zipf(1) over `n` subjects: rank `k` (0-based) is drawn with
/// probability proportional to `1 / (k + 1)`, and ranks are scattered
/// over the id space by a fixed bijection so the hot subjects land on
/// every engine partition.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    stride: u64,
}

impl Zipf {
    /// The distribution over subjects `0..n`.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "Zipf needs at least one subject");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / (k + 1) as f64;
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        // A prime stride coprime with n makes rank -> id a bijection.
        let mut stride = 104_729 % n;
        while gcd(stride, n) != 1 {
            stride += 1;
        }
        Zipf { cdf, stride }
    }

    /// Number of subjects.
    pub fn len(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// Draws a subject id.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64;
        (rank * self.stride) % self.len()
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// One service operation of the generated stream.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// `report_batch`: one transaction's two opinions online, a
    /// 1 000-opinion batch in bulk ingest.
    Report(Vec<Feedback>),
    /// `credit` (a passed audit repaying a loan).
    Credit(PeerId, f64),
    /// `debit` (a loan stake, or a failed audit's penalty).
    Debit(PeerId, f64),
    /// `register_peer` (an admitted arrival).
    Register(PeerId),
}

impl Op {
    /// Opinions the op carries.
    pub fn opinions(&self) -> usize {
        match self {
            Op::Report(batch) => batch.len(),
            _ => 0,
        }
    }
}

/// Op-mix shares, in ops per million, measured from the engine calls of
/// whole Table-1 paper runs (the `sim_table1` community; the test
/// `online_mix_follows_table1_traffic` re-measures them). Per run, a
/// served transaction is one 2-opinion `report_batch`. An admission is
/// a loan: a `debit` of the introducer and a `register_peer` of the
/// newcomer. A passed audit is a `credit` of the introducer, a failed
/// audit a `debit` of the newcomer. Departures are left out: at this
/// commit every `remove_peer` scans every interaction pair the engine
/// holds, so an open-loop stream with departures measures that scan's
/// stalls, which grow through the run and do not repeat within the
/// benchmark's bounds (see README.md). Departures are timed apart, on
/// the replica.
pub const REGISTER_PPM: u64 = 9_200;
/// Loan repayments per million ops.
pub const CREDIT_PPM: u64 = 7_100;
/// Loan stakes and audit penalties per million ops.
pub const DEBIT_PPM: u64 = 9_800;
/// Share of subjects that behave: the mean cooperative share of a
/// Table-1 community's members, measured with the shares above.
pub const HONEST_SHARE: f64 = 0.92;
/// A loan repayment: the Table-1 `introAmt` plus `rwd`.
pub const REPAYMENT: f64 = 0.12;
/// A loan stake or audit penalty: the Table-1 `introAmt`.
pub const STAKE: f64 = 0.1;
/// Initial reputation of a registered arrival: the Table-1 `introAmt`.
pub const ARRIVAL_REPUTATION: f64 = 0.1;

/// The deterministic service op stream of one seed. Subjects `0..n` are
/// the founders registered at set-up, so every read of them must
/// succeed; arrivals get fresh ids from `n` upwards.
#[derive(Clone, Debug)]
pub struct OpGen {
    rng: Rng,
    seed: u64,
    zipf: Zipf,
    arrived: Vec<PeerId>,
}

impl OpGen {
    /// The stream for `seed` over `subjects` founders.
    pub fn new(seed: u64, subjects: u64) -> Self {
        OpGen {
            rng: Rng::new(seed, 1),
            seed,
            zipf: Zipf::new(subjects),
            arrived: Vec::new(),
        }
    }

    /// The founders' Zipf distribution (shared with the reader).
    pub fn zipf(&self) -> &Zipf {
        &self.zipf
    }

    /// Subjects registered: founders plus arrivals.
    pub fn live_subjects(&self) -> u64 {
        self.zipf.len() + self.arrived.len() as u64
    }

    /// Arrivals registered so far, in order.
    pub fn arrivals(&self) -> &[PeerId] {
        &self.arrived
    }

    /// One transaction's feedback pair: a uniform requester and a
    /// Zipf(1)-skewed respondent, each reporting on the other (the
    /// community's tick, §3 of the paper).
    fn transaction(&mut self) -> [Feedback; 2] {
        let n = self.zipf.len();
        let requester = self.rng.below(n);
        let mut respondent = self.zipf.sample(&mut self.rng);
        if respondent == requester {
            respondent = (respondent + 1) % n;
        }
        [
            Feedback::new(
                PeerId(requester),
                PeerId(respondent),
                self.opinion(requester, respondent),
            ),
            Feedback::new(
                PeerId(respondent),
                PeerId(requester),
                self.opinion(respondent, requester),
            ),
        ]
    }

    /// Whether `subject` behaves: a fixed [`HONEST_SHARE`] of subjects
    /// per seed.
    fn honest(&self, subject: u64) -> bool {
        let u = (splitmix64(salted(self.seed, subject)) >> 11) as f64 / (1u64 << 53) as f64;
        u < HONEST_SHARE
    }

    /// The community's feedback rule (§3 of the paper): a cooperative
    /// reporter reports 1 iff its partner behaved, an uncooperative one
    /// always reports 0.
    fn opinion(&self, reporter: u64, subject: u64) -> f64 {
        if self.honest(reporter) && self.honest(subject) {
            1.0
        } else {
            0.0
        }
    }

    /// The next op of the online mix.
    pub fn next_online(&mut self) -> Op {
        let roll = self.rng.below(1_000_000);
        let mut edge = REGISTER_PPM;
        if roll < edge {
            let peer = PeerId(self.live_subjects());
            self.arrived.push(peer);
            return Op::Register(peer);
        }
        edge += CREDIT_PPM;
        if roll < edge {
            return Op::Credit(PeerId(self.zipf.sample(&mut self.rng)), REPAYMENT);
        }
        edge += DEBIT_PPM;
        if roll < edge {
            return Op::Debit(PeerId(self.zipf.sample(&mut self.rng)), STAKE);
        }
        Op::Report(self.transaction().to_vec())
    }

    /// The next bulk-ingest batch: `transactions` feedback pairs.
    pub fn next_bulk(&mut self, transactions: usize) -> Op {
        let mut batch = Vec::with_capacity(transactions * 2);
        for _ in 0..transactions {
            batch.extend_from_slice(&self.transaction());
        }
        Op::Report(batch)
    }
}

/// The closed-loop reader's probe keys: founders drawn from the same
/// Zipf(1) skew as the writes, from an independent stream of the seed.
#[derive(Clone, Debug)]
pub struct ReaderKeys {
    rng: Rng,
    zipf: Zipf,
}

impl ReaderKeys {
    /// The probe stream for `seed`.
    pub fn new(seed: u64, zipf: Zipf) -> Self {
        ReaderKeys {
            rng: Rng::new(seed, 2),
            zipf,
        }
    }

    /// The next subject to probe.
    pub fn next_key(&mut self) -> PeerId {
        PeerId(self.zipf.sample(&mut self.rng))
    }
}

/// Open-loop send schedule: op `i` is due `i · interval` after the
/// start, whether or not earlier ops have finished.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    interval_ns: f64,
}

impl Schedule {
    /// A schedule sending `rate` ops per second.
    pub fn at_rate(rate: f64) -> Self {
        assert!(rate > 0.0, "open-loop rate must be positive");
        Schedule {
            interval_ns: 1e9 / rate,
        }
    }

    /// Nanoseconds after the start at which op `i` is due.
    pub fn due_ns(&self, i: u64) -> u64 {
        (i as f64 * self.interval_ns) as u64
    }
}

/// One op's timing against its due time, in nanoseconds since the
/// schedule started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpTiming {
    /// How late the generator issued the op (0 when on time).
    pub late_ns: u64,
    /// From the due time until the call returned: what the op's sender
    /// waited, including any backlog left by earlier slow ops.
    pub latency_ns: u64,
    /// The call alone, from issue to return.
    pub service_ns: u64,
}

impl OpTiming {
    /// Timing of an op due at `due`, issued at `issued` and returned at
    /// `returned`.
    pub fn new(due: u64, issued: u64, returned: u64) -> Self {
        OpTiming {
            late_ns: issued.saturating_sub(due),
            latency_ns: returned.saturating_sub(due),
            service_ns: returned.saturating_sub(issued),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_is_a_function_of_the_seed() {
        let take = |seed| {
            let mut g = OpGen::new(seed, 1_000);
            (0..5_000).map(|_| g.next_online()).collect::<Vec<_>>()
        };
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
        let mut a = OpGen::new(3, 1_000);
        let mut b = OpGen::new(3, 1_000);
        assert_eq!(a.next_bulk(500), b.next_bulk(500));
    }

    #[test]
    fn reader_keys_are_a_function_of_the_seed() {
        let take = |seed| {
            let mut k = ReaderKeys::new(seed, Zipf::new(1_000));
            (0..1_000).map(|_| k.next_key()).collect::<Vec<_>>()
        };
        assert_eq!(take(11), take(11));
        assert_ne!(take(11), take(12));
    }

    #[test]
    fn opinions_follow_the_feedback_rule_at_the_honest_share() {
        let g = OpGen::new(5, 10_000);
        let honest: Vec<u64> = (0..10_000).filter(|&s| g.honest(s)).collect();
        let share = honest.len() as f64 / 10_000.0;
        assert!((share - HONEST_SHARE).abs() < 0.02, "honest share {share}");
        let cheat = (0..10_000).find(|&s| !g.honest(s)).expect("a cheat");
        assert_eq!(g.opinion(honest[0], honest[1]), 1.0);
        assert_eq!(g.opinion(honest[0], cheat), 0.0);
        assert_eq!(g.opinion(cheat, honest[0]), 0.0);
    }

    #[test]
    fn op_mix_matches_its_shares_and_registers_fresh_ids() {
        let founders = 10_000;
        let mut g = OpGen::new(5, founders);
        let (mut reg, mut cred, mut deb, mut rep) = (0u64, 0u64, 0u64, 0u64);
        let n = 400_000u64;
        for _ in 0..n {
            match g.next_online() {
                Op::Register(p) => {
                    assert_eq!(p.0, founders + reg);
                    reg += 1;
                }
                Op::Credit(..) => cred += 1,
                Op::Debit(..) => deb += 1,
                Op::Report(pair) => {
                    assert_eq!(pair.len(), 2);
                    assert_ne!(pair[0].reporter, pair[0].subject);
                    rep += 1;
                }
            }
        }
        // Within 10 % of each declared share (400 000 draws put one
        // standard deviation near 2.5 % of the smallest).
        let near = |count: u64, declared: u64| {
            let ppm = count as f64 * 1e6 / n as f64;
            (ppm / declared as f64 - 1.0).abs() < 0.1
        };
        assert!(near(reg, REGISTER_PPM), "register {reg}");
        assert!(near(cred, CREDIT_PPM), "credit {cred}");
        assert!(near(deb, DEBIT_PPM), "debit {deb}");
        assert_eq!(reg + cred + deb + rep, n);
        assert_eq!(g.live_subjects(), founders + reg);
        assert_eq!(g.arrivals().len() as u64, reg);
    }

    #[test]
    fn zipf_favours_low_ranks_and_covers_its_range() {
        let zipf = Zipf::new(1_000);
        let mut rng = Rng::new(1, 0);
        let mut counts = vec![0u32; 1_000];
        for _ in 0..200_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        // Rank 0 maps to id 0 and carries ~1/H(1000) ≈ 13 % of draws.
        assert!(counts[0] > 20_000, "hottest subject drew {}", counts[0]);
        assert!(counts.iter().filter(|&&c| c > 0).count() > 900);
    }

    #[test]
    fn open_loop_lateness_is_measured_from_the_due_time() {
        let s = Schedule::at_rate(1_000.0); // one op per millisecond
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(3), 3_000_000);
        // On time: issued when due, served in 200 µs.
        let on_time = OpTiming::new(s.due_ns(1), 1_000_000, 1_200_000);
        assert_eq!(on_time.late_ns, 0);
        assert_eq!(on_time.latency_ns, 200_000);
        assert_eq!(on_time.service_ns, 200_000);
        // A 2.5 ms stall at op 1 delays op 2 and op 3: their latency
        // includes the backlog, although each call alone is fast.
        let stalled = OpTiming::new(s.due_ns(1), 1_000_000, 3_500_000);
        assert_eq!(stalled.latency_ns, 2_500_000);
        let op2 = OpTiming::new(s.due_ns(2), 3_500_000, 3_600_000);
        assert_eq!(op2.late_ns, 1_500_000);
        assert_eq!(op2.latency_ns, 1_600_000);
        assert_eq!(op2.service_ns, 100_000);
        let op3 = OpTiming::new(s.due_ns(3), 3_600_000, 3_700_000);
        assert_eq!(op3.late_ns, 600_000);
        assert_eq!(op3.latency_ns, 700_000);
        // Issued early (spinning ended just before the due time) never
        // counts as negative lateness.
        let early = OpTiming::new(s.due_ns(4), 3_999_990, 4_100_000);
        assert_eq!(early.late_ns, 0);
        assert_eq!(early.latency_ns, 100_000);
    }
}
