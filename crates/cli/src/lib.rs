//! # replend-cli
//!
//! Command-line front end for the `replend` community simulator:
//!
//! ```text
//! replend run [--ticks N] [--lambda F] [--num-init N] [--f-uncoop F]
//!             [--f-naive F] [--topology random|powerlaw|zipf]
//!             [--policy lending|open|fixed-credit|positive-only|complaints-only]
//!             [--intro-amt F] [--reward F] [--wait N] [--audit-trans N]
//!             [--departure-rate F] [--seed N] [--sample N]
//!             [--histogram N] [--communities K]
//! replend serve [--subjects N] [--rounds N] [--batch N] [--readers N]
//!               [--partitions N] [--num-sm N] [--seed N] [--journal PATH]
//!               [--journal-sync always|batch:N]
//!               [--min-observations N] [--throttle-below F] [--ban-below F]
//! replend table1
//! replend help
//! ```
//!
//! `replend run` is always a [`CommunityCluster`] run: K independent
//! communities (`--communities`, default 1), community `i` seeded with
//! `seed_for_run(seed, i)`, stepped in parallel and printed as merged
//! aggregates plus a per-community table.
//!
//! Argument parsing is hand-rolled (the workspace's dependency policy
//! has no CLI crate) and fully unit-tested; `main.rs` is a thin shell
//! around [`run_cli`].

use replend_core::community::CommunityBuilder;
use replend_core::serve::{
    run_ingest_workload, ReputationService, ServeConfig, StatusPolicy, SyncPolicy, WorkloadConfig,
};
use replend_core::{BootstrapPolicy, CommunityCluster, EngineKind};
use replend_sim::series::average_present;
use replend_types::{Table1, TopologyKind};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Command {
    /// Run a simulation and print the summary (boxed: the full
    /// Table-1 configuration dwarfs the other variants).
    Run(Box<RunArgs>),
    /// Print the Table-1 defaults.
    Table1,
    /// Run the concurrent reputation service under a synthetic ingest
    /// workload (optionally journalled) and print the tier census.
    Serve(ServeArgs),
    /// Open a journalled service, take a durable checkpoint of its
    /// full state, and compact the journal to empty (`replend
    /// compact`). Takes the service-config subset of the serve flags
    /// — the workload flags make no sense here and are rejected.
    Compact(ServeArgs),
    /// Data-driven attack scenarios (`replend scenario …`).
    Scenario(ScenarioCmd),
    /// Print usage.
    Help,
}

/// Subcommands of `replend scenario`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum ScenarioCmd {
    /// List the shipped scenarios.
    List,
    /// Run a `.scn` scenario file and write its metrics CSV.
    Run {
        /// The scenario file.
        file: PathBuf,
        /// Where to write the metrics CSV (default
        /// `results/scenario_<name>.csv`).
        out: Option<PathBuf>,
    },
    /// Write a builtin scenario's canonical `.scn` bytes.
    Export {
        /// Builtin scenario name.
        name: String,
        /// Where to write it (default `examples/scenarios/<name>.scn`).
        out: Option<PathBuf>,
    },
}

/// Options of `replend serve`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ServeArgs {
    /// Subjects registered before ingest starts.
    pub(crate) subjects: u64,
    /// Ingest batches applied.
    pub(crate) rounds: u64,
    /// Opinions per batch.
    pub(crate) batch: usize,
    /// Concurrent reader threads probing the live service.
    pub(crate) readers: usize,
    /// Lock partitions of the concurrent engine.
    pub(crate) partitions: usize,
    /// Score managers per subject.
    pub(crate) num_sm: usize,
    /// Engine + workload seed.
    pub(crate) seed: u64,
    /// Write-ahead feedback journal (`None` = in-memory only).
    pub(crate) journal: Option<PathBuf>,
    /// Journal flush policy: every record, or group-committed.
    pub(crate) journal_sync: SyncPolicy,
    /// Auto-checkpoint (and journal-compaction) cadence in journalled
    /// mutations; `None` = only explicit `replend compact` runs.
    pub(crate) checkpoint_every: Option<u64>,
    /// Observations before the status policy trusts a reputation.
    pub(crate) min_observations: u64,
    /// Throttle subjects below this reputation.
    pub(crate) throttle_below: f64,
    /// Ban subjects below this reputation.
    pub(crate) ban_below: f64,
}

impl Default for ServeArgs {
    fn default() -> Self {
        let workload = WorkloadConfig::default();
        let config = ServeConfig::default();
        ServeArgs {
            subjects: workload.subjects,
            rounds: workload.rounds,
            batch: workload.batch,
            readers: workload.readers,
            partitions: config.partitions,
            num_sm: config.num_sm,
            seed: 0,
            journal: None,
            journal_sync: config.journal_sync,
            checkpoint_every: config.checkpoint_every,
            min_observations: config.policy.min_observations,
            throttle_below: config.policy.throttle_below,
            ban_below: config.policy.ban_below,
        }
    }
}

impl ServeArgs {
    /// The status-tier policy these arguments describe.
    pub(crate) fn policy(&self) -> StatusPolicy {
        StatusPolicy {
            min_observations: self.min_observations,
            throttle_below: self.throttle_below,
            ban_below: self.ban_below,
        }
    }

    /// The service configuration these arguments describe (engine
    /// crash model off: the service is an oracle, not a simulation).
    pub(crate) fn service_config(&self) -> ServeConfig {
        ServeConfig {
            num_sm: self.num_sm,
            partitions: self.partitions,
            seed: self.seed,
            policy: self.policy(),
            journal_sync: self.journal_sync,
            checkpoint_every: self.checkpoint_every,
            ..ServeConfig::default()
        }
    }

    /// The synthetic workload these arguments describe.
    pub(crate) fn workload(&self) -> WorkloadConfig {
        WorkloadConfig {
            subjects: self.subjects,
            rounds: self.rounds,
            batch: self.batch,
            readers: self.readers,
            seed: self.seed,
        }
    }
}

/// Options of `replend run`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct RunArgs {
    /// Full simulation configuration.
    pub(crate) config: Table1,
    /// Bootstrap policy.
    pub(crate) policy: BootstrapPolicy,
    /// Base seed of the cluster's seed schedule.
    pub(crate) seed: u64,
    /// Sampling interval for the reputation series (0 = no series).
    pub(crate) sample: u64,
    /// Print a reputation histogram with this many buckets (0 = off).
    pub(crate) histogram: usize,
    /// Departure churn rate (extension; 0 = paper model).
    pub(crate) departure_rate: f64,
    /// Independent communities stepped in parallel as one cluster.
    pub(crate) communities: usize,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            config: Table1::paper_defaults().with_num_trans(50_000),
            policy: BootstrapPolicy::ReputationLending,
            seed: 0,
            sample: 0,
            histogram: 0,
            departure_rate: 0.0,
            communities: 1,
        }
    }
}

/// A parse failure with a user-facing message.
#[derive(Clone, Debug, PartialEq)]
pub struct UsageError(pub(crate) String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for UsageError {}

/// Any CLI failure, split so the shell sees the right behaviour:
/// usage problems reprint the usage text, runtime failures (an
/// unreadable journal, say) just report — but **both** must exit
/// non-zero, so neither may travel back through the `Ok` output
/// channel as rendered text.
#[derive(Clone, Debug, PartialEq)]
pub enum CliError {
    /// The command line could not be parsed/validated.
    Usage(UsageError),
    /// A valid command failed while executing.
    Run(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(e) => write!(f, "{e}"),
            CliError::Run(m) => write!(f, "{m}"),
        }
    }
}
impl std::error::Error for CliError {}

impl From<UsageError> for CliError {
    fn from(e: UsageError) -> Self {
        CliError::Usage(e)
    }
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<&str>) -> Result<T, UsageError> {
    let raw = value.ok_or_else(|| UsageError(format!("{flag} requires a value")))?;
    raw.parse()
        .map_err(|_| UsageError(format!("invalid value {raw:?} for {flag}")))
}

/// Parses a count that must be at least 1, with a flag-named message
/// (zero would otherwise travel on to panic deep inside the engine).
fn parse_positive(flag: &str, value: Option<&str>) -> Result<usize, UsageError> {
    let n: usize = parse_value(flag, value)?;
    if n == 0 {
        return Err(UsageError(format!("{flag} must be at least 1")));
    }
    Ok(n)
}

/// Parses `--journal-sync`: `always`, or `batch:N` with `N >= 2`
/// (batch:1 is just `always` — asking for it is a sign of confusion,
/// so it gets the named error too).
fn parse_sync_policy(raw: &str) -> Result<SyncPolicy, UsageError> {
    if raw == "always" {
        return Ok(SyncPolicy::Always);
    }
    if let Some(n) = raw.strip_prefix("batch:") {
        if let Ok(n) = n.parse::<usize>() {
            if n >= 2 {
                return Ok(SyncPolicy::Batch(n));
            }
        }
    }
    Err(UsageError(format!(
        "--journal-sync must be \"always\" or \"batch:N\" with N >= 2, got {raw:?}"
    )))
}

fn parse_policy(raw: &str) -> Result<BootstrapPolicy, UsageError> {
    Ok(match raw {
        "lending" => BootstrapPolicy::ReputationLending,
        "open" => BootstrapPolicy::OpenAdmission { initial: 0.5 },
        "fixed-credit" => BootstrapPolicy::FixedCredit { credit: 0.1 },
        "positive-only" => BootstrapPolicy::PositiveOnly,
        "complaints-only" => BootstrapPolicy::ComplaintsOnly,
        other => return Err(UsageError(format!("unknown policy {other:?}"))),
    })
}

fn parse_topology(raw: &str) -> Result<TopologyKind, UsageError> {
    Ok(match raw {
        "random" => TopologyKind::Random,
        "powerlaw" => TopologyKind::Powerlaw,
        "zipf" => TopologyKind::Zipf,
        other => return Err(UsageError(format!("unknown topology {other:?}"))),
    })
}

/// Parses a full argument list (without the program name).
pub(crate) fn parse_args(args: &[&str]) -> Result<Command, UsageError> {
    match args.first().copied() {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("table1") => Ok(Command::Table1),
        Some("serve") => {
            let mut out = ServeArgs::default();
            let mut i = 1;
            while i < args.len() {
                let flag = args[i];
                let value = args.get(i + 1).copied();
                match flag {
                    "--subjects" => {
                        out.subjects = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--rounds" => {
                        out.rounds = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--batch" => {
                        out.batch = parse_positive(flag, value)?;
                        i += 2;
                    }
                    "--readers" => {
                        out.readers = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--partitions" => {
                        // Caught here, not at the engine's assert!.
                        out.partitions = parse_positive(flag, value)?;
                        i += 2;
                    }
                    "--num-sm" => {
                        out.num_sm = parse_positive(flag, value)?;
                        i += 2;
                    }
                    "--seed" => {
                        out.seed = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--journal" => {
                        let raw: String = parse_value(flag, value)?;
                        out.journal = Some(PathBuf::from(raw));
                        i += 2;
                    }
                    "--journal-sync" => {
                        let raw: String = parse_value(flag, value)?;
                        out.journal_sync = parse_sync_policy(&raw)?;
                        i += 2;
                    }
                    "--checkpoint-every" => {
                        // Caught here, not as a confusing modulo-zero
                        // later: a cadence of zero makes no sense.
                        out.checkpoint_every = Some(parse_positive(flag, value)? as u64);
                        i += 2;
                    }
                    "--min-observations" => {
                        out.min_observations = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--throttle-below" => {
                        out.throttle_below = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--ban-below" => {
                        out.ban_below = parse_value(flag, value)?;
                        i += 2;
                    }
                    other => return Err(UsageError(format!("unknown flag {other:?}"))),
                }
            }
            if out.subjects == 0 {
                return Err(UsageError("--subjects must be at least 1".into()));
            }
            if out.checkpoint_every.is_some() && out.journal.is_none() {
                return Err(UsageError(
                    "--checkpoint-every needs --journal (an in-memory service has \
                     nothing to checkpoint)"
                        .into(),
                ));
            }
            // Threshold mistakes are caught here, at parse time, with
            // the flag names the user typed — not later from
            // `StatusPolicy::validate` deep in the service.
            if !(0.0..=1.0).contains(&out.throttle_below) {
                return Err(UsageError(format!(
                    "--throttle-below must lie in [0, 1], got {}",
                    out.throttle_below
                )));
            }
            if !(0.0..=1.0).contains(&out.ban_below) {
                return Err(UsageError(format!(
                    "--ban-below must lie in [0, 1], got {}",
                    out.ban_below
                )));
            }
            if out.ban_below >= out.throttle_below {
                return Err(UsageError(format!(
                    "--ban-below ({}) must be strictly below --throttle-below ({})",
                    out.ban_below, out.throttle_below
                )));
            }
            // Backstop: any policy invariant the flag checks above
            // don't cover.
            out.policy()
                .validate()
                .map_err(|e| UsageError(format!("invalid status policy: {e}")))?;
            Ok(Command::Serve(out))
        }
        Some("compact") => {
            let mut out = ServeArgs::default();
            let mut i = 1;
            while i < args.len() {
                let flag = args[i];
                let value = args.get(i + 1).copied();
                match flag {
                    "--journal" => {
                        let raw: String = parse_value(flag, value)?;
                        out.journal = Some(PathBuf::from(raw));
                        i += 2;
                    }
                    "--partitions" => {
                        out.partitions = parse_positive(flag, value)?;
                        i += 2;
                    }
                    "--num-sm" => {
                        out.num_sm = parse_positive(flag, value)?;
                        i += 2;
                    }
                    "--seed" => {
                        out.seed = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--min-observations" => {
                        out.min_observations = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--throttle-below" => {
                        out.throttle_below = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--ban-below" => {
                        out.ban_below = parse_value(flag, value)?;
                        i += 2;
                    }
                    other => return Err(UsageError(format!("unknown flag {other:?}"))),
                }
            }
            if out.journal.is_none() {
                return Err(UsageError(
                    "compact needs --journal PATH (the journal to checkpoint and compact)".into(),
                ));
            }
            out.policy()
                .validate()
                .map_err(|e| UsageError(format!("invalid status policy: {e}")))?;
            Ok(Command::Compact(out))
        }
        Some("scenario") => parse_scenario_args(&args[1..]),
        Some("run") => {
            let mut out = RunArgs::default();
            let mut i = 1;
            while i < args.len() {
                let flag = args[i];
                let value = args.get(i + 1).copied();
                match flag {
                    "--ticks" => {
                        out.config.sim.num_trans = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--lambda" => {
                        out.config.sim.arrival_rate = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--num-init" => {
                        out.config.sim.num_init = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--num-sm" => {
                        out.config.sim.num_sm = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--f-uncoop" => {
                        out.config.sim.f_uncoop = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--f-naive" => {
                        out.config.sim.f_naive = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--err-sel" => {
                        out.config.sim.err_sel = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--topology" => {
                        let raw: String = parse_value(flag, value)?;
                        out.config.sim.topology = parse_topology(&raw)?;
                        i += 2;
                    }
                    "--policy" => {
                        let raw: String = parse_value(flag, value)?;
                        out.policy = parse_policy(&raw)?;
                        i += 2;
                    }
                    "--intro-amt" => {
                        out.config.lending.intro_amt = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--reward" => {
                        out.config.lending.reward = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--wait" => {
                        out.config.lending.wait_period = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--audit-trans" => {
                        out.config.lending.audit_trans = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--min-intro" => {
                        out.config.lending.min_intro_override = Some(parse_value(flag, value)?);
                        i += 2;
                    }
                    "--departure-rate" => {
                        out.departure_rate = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--seed" => {
                        out.seed = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--sample" => {
                        out.sample = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--histogram" => {
                        out.histogram = parse_value(flag, value)?;
                        i += 2;
                    }
                    "--communities" => {
                        out.communities = parse_positive(flag, value)?;
                        i += 2;
                    }
                    other => return Err(UsageError(format!("unknown flag {other:?}"))),
                }
            }
            out.config
                .validate()
                .map_err(|e| UsageError(format!("invalid configuration: {e}")))?;
            Ok(Command::Run(Box::new(out)))
        }
        Some(other) => Err(UsageError(format!(
            "unknown command {other:?}; try `replend help`"
        ))),
    }
}

/// Parses `replend scenario …` (the part after `scenario`).
fn parse_scenario_args(args: &[&str]) -> Result<Command, UsageError> {
    match args.first().copied() {
        Some("list") => match args.get(1) {
            None => Ok(Command::Scenario(ScenarioCmd::List)),
            Some(extra) => Err(UsageError(format!(
                "scenario list takes no arguments, got {extra:?}"
            ))),
        },
        Some("run") => {
            let file = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| UsageError("scenario run needs a .scn file".into()))?;
            let mut out = None;
            let mut i = 2;
            while i < args.len() {
                let flag = args[i];
                let value = args.get(i + 1).copied();
                match flag {
                    "--out" => {
                        let raw: String = parse_value(flag, value)?;
                        out = Some(PathBuf::from(raw));
                        i += 2;
                    }
                    other => return Err(UsageError(format!("unknown flag {other:?}"))),
                }
            }
            Ok(Command::Scenario(ScenarioCmd::Run {
                file: PathBuf::from(file),
                out,
            }))
        }
        Some("export") => {
            let name = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| UsageError("scenario export needs a builtin name".into()))?;
            let mut out = None;
            let mut i = 2;
            while i < args.len() {
                let flag = args[i];
                let value = args.get(i + 1).copied();
                match flag {
                    "--out" => {
                        let raw: String = parse_value(flag, value)?;
                        out = Some(PathBuf::from(raw));
                        i += 2;
                    }
                    other => return Err(UsageError(format!("unknown flag {other:?}"))),
                }
            }
            Ok(Command::Scenario(ScenarioCmd::Export {
                name: name.to_string(),
                out,
            }))
        }
        other => Err(UsageError(match other {
            Some(sub) => format!(
                "unknown scenario subcommand {sub:?}; try list, run <file>, or export <name>"
            ),
            None => "scenario needs a subcommand: list, run <file>, or export <name>".into(),
        })),
    }
}

/// Usage text.
pub fn usage() -> String {
    "replend — the reputation-lending community simulator\n\
     \n\
     USAGE:\n\
     \x20 replend run [OPTIONS]   run a simulation and print the summary\n\
     \x20 replend table1          print the paper's Table-1 defaults\n\
     \x20 replend serve [OPTIONS] run the concurrent reputation service under a\n\
     \x20                         synthetic ingest workload and print the\n\
     \x20                         operational status-tier census\n\
     \x20 replend compact --journal PATH [OPTIONS]\n\
     \x20                         checkpoint a journalled service's full state\n\
     \x20                         and truncate its journal; the next open\n\
     \x20                         restores the checkpoint and replays only ops\n\
     \x20                         written after it (--partitions, --num-sm,\n\
     \x20                         --seed and the status-policy flags as for serve)\n\
     \x20 replend scenario list   list the shipped attack scenarios\n\
     \x20 replend scenario run <file> [--out PATH]\n\
     \x20                         run a .scn scenario file deterministically and\n\
     \x20                         write its metrics CSV (default\n\
     \x20                         results/scenario_<name>.csv; honours\n\
     \x20                         $REPLEND_TICKS for reduced-scale smokes)\n\
     \x20 replend scenario export <name> [--out PATH]\n\
     \x20                         write a builtin scenario's canonical .scn\n\
     \x20                         bytes (default examples/scenarios/<name>.scn)\n\
     \x20 replend help            this text\n\
     \n\
     RUN OPTIONS (defaults = Table 1, 50 000 ticks):\n\
     \x20 --ticks N           simulation length in transactions\n\
     \x20 --lambda F          Poisson arrival rate per tick\n\
     \x20 --num-init N        founding population\n\
     \x20 --num-sm N          score managers per peer\n\
     \x20 --f-uncoop F        uncooperative share of arrivals\n\
     \x20 --f-naive F         naive share of cooperative peers\n\
     \x20 --err-sel F         selective-introducer error rate\n\
     \x20 --topology T        random | powerlaw | zipf\n\
     \x20 --policy P          lending | open | fixed-credit | positive-only | complaints-only\n\
     \x20 --intro-amt F       reputation staked per introduction\n\
     \x20 --reward F          introducer reward on a passed audit\n\
     \x20 --wait N            introduction waiting period T\n\
     \x20 --audit-trans N     transactions before the newcomer audit\n\
     \x20 --min-intro F       override the minIntro threshold\n\
     \x20 --departure-rate F  member departure rate (extension)\n\
     \x20 --seed N            RNG seed (default 0)\n\
     \x20 --sample N          also print a reputation series every N ticks\n\
     \x20 --histogram N       print an N-bucket member reputation histogram\n\
     \x20 --communities K     run K independent communities in parallel as one\n\
     \x20                     cluster; prints merged aggregates and a\n\
     \x20                     per-community table (default 1)\n\
     \n\
     SERVE OPTIONS (reads proceed concurrently with ingest; final state\n\
     is deterministic in the seed):\n\
     \x20 --subjects N        subjects registered before ingest (default 10000)\n\
     \x20 --rounds N          ingest batches applied (default 100)\n\
     \x20 --batch N           opinions per batch (default 1000)\n\
     \x20 --readers N         concurrent reader threads (default 2; 0 = ingest only)\n\
     \x20 --partitions N      lock partitions of the concurrent engine (default 8)\n\
     \x20 --num-sm N          score managers per subject (default 6)\n\
     \x20 --seed N            engine + workload seed (default 0)\n\
     \x20 --journal PATH      write-ahead feedback journal; replayed on start,\n\
     \x20                     so a restart lands on byte-identical state\n\
     \x20 --journal-sync M    journal flush policy: \"always\" (flush every\n\
     \x20                     record before applying it; default) or \"batch:N\"\n\
     \x20                     (group commit: flush every N appends; identical\n\
     \x20                     bytes and replay state, up to N-1 applied ops\n\
     \x20                     lost on a crash)\n\
     \x20 --checkpoint-every N  auto-checkpoint (and compact the journal) after\n\
     \x20                     every N journalled ops; needs --journal. Restart\n\
     \x20                     then restores the checkpoint and replays only the\n\
     \x20                     suffix — identical state, bounded restart time\n\
     \x20 --min-observations N  observations before the policy trusts a\n\
     \x20                     reputation (default 10)\n\
     \x20 --throttle-below F  throttle subjects below this reputation (default 0.5)\n\
     \x20 --ban-below F       ban subjects below this reputation (default 0.2)\n"
        .to_string()
}

/// Executes a parsed command, returning the text to print. Fails
/// (with [`CliError::Run`]) only on runtime errors — journal or file
/// I/O — so the shell sees a non-zero exit instead of an "error: ..."
/// line on stdout with exit 0.
pub(crate) fn execute(command: Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(usage()),
        Command::Table1 => {
            let c = Table1::paper_defaults();
            Ok(format!(
                "Table-1 defaults:\n{}",
                format_args!(
                    "  numInit={} numTrans={} numSM={} lambda={} f_uncoop={} f_naive={} \
                     err_sel={} topology={} T={} auditTrans={} introAmt={} rwd={} minIntro={}\n",
                    c.sim.num_init,
                    c.sim.num_trans,
                    c.sim.num_sm,
                    c.sim.arrival_rate,
                    c.sim.f_uncoop,
                    c.sim.f_naive,
                    c.sim.err_sel,
                    c.sim.topology,
                    c.lending.wait_period,
                    c.lending.audit_trans,
                    c.lending.intro_amt,
                    c.lending.reward,
                    c.lending.min_intro(),
                )
            ))
        }
        Command::Run(args) => Ok(run_simulation(&args)),
        Command::Serve(args) => run_serve(&args),
        Command::Compact(args) => run_compact(&args),
        Command::Scenario(cmd) => run_scenario(&cmd),
    }
}

/// Executes `replend scenario …`. Malformed scenario files and
/// unknown builtin names are [`CliError::Usage`] (the file is the
/// "argument" here); I/O failures are [`CliError::Run`].
fn run_scenario(cmd: &ScenarioCmd) -> Result<String, CliError> {
    match cmd {
        ScenarioCmd::List => {
            let mut out = String::new();
            let _ = writeln!(
                out,
                "shipped scenarios (examples/scenarios/<name>.scn; run with \
                 `replend scenario run <file>`):"
            );
            for scenario in replend_scenario::builtins() {
                let cohorts: Vec<&str> = scenario.cohorts.iter().map(|c| c.class.name()).collect();
                let _ = writeln!(
                    out,
                    "  {:<22} {}\n{:24}seed {}, {} ticks{}",
                    scenario.name,
                    scenario.description,
                    "",
                    scenario.seed,
                    scenario.horizon,
                    if cohorts.is_empty() {
                        String::new()
                    } else {
                        format!(", adversaries: {}", cohorts.join(", "))
                    }
                );
            }
            Ok(out)
        }
        ScenarioCmd::Run { file, out } => {
            let scenario = replend_scenario::load_scenario(file)
                .map_err(CliError::Run)?
                .map_err(|e| UsageError(format!("invalid scenario {}: {e}", file.display())))?;
            let options = replend_scenario::capped_options(&scenario).map_err(CliError::Run)?;
            let runner = replend_scenario::ScenarioRunner::new(scenario)
                .map_err(|e| UsageError(format!("invalid scenario {}: {e}", file.display())))?;
            let outcome = runner.run_with(options);
            let path = match out {
                Some(path) => {
                    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                        std::fs::create_dir_all(parent).map_err(|e| {
                            CliError::Run(format!("cannot create {}: {e}", parent.display()))
                        })?;
                    }
                    std::fs::write(path, outcome.to_csv()).map_err(|e| {
                        CliError::Run(format!("cannot write {}: {e}", path.display()))
                    })?;
                    path.clone()
                }
                None => replend_scenario::write_metrics_csv(&outcome)
                    .map_err(|e| CliError::Run(format!("cannot write metrics CSV: {e}")))?,
            };
            let mut text = String::new();
            let _ = writeln!(
                text,
                "scenario {}: {} ticks, {} metrics row(s), {} observation(s)",
                outcome.name,
                outcome.ticks_run,
                outcome.rows.len(),
                outcome.observations.len()
            );
            let pop = &outcome.final_population;
            let _ = writeln!(
                text,
                "  final population: {} member(s) ({} cooperative, {} uncooperative)",
                pop.members, pop.cooperative, pop.uncooperative
            );
            if outcome.partition_blocked > 0 {
                let _ = writeln!(
                    text,
                    "  partitions blocked {} transaction(s)",
                    outcome.partition_blocked
                );
            }
            let _ = writeln!(text, "  wrote {}", path.display());
            Ok(text)
        }
        ScenarioCmd::Export { name, out } => {
            let scenario = replend_scenario::builtin(name).ok_or_else(|| {
                UsageError(format!(
                    "unknown builtin scenario {name:?}; shipped scenarios: {}",
                    replend_scenario::BUILTIN_NAMES.join(", ")
                ))
            })?;
            let bytes = replend_scenario::encode_scenario(&scenario)
                .map_err(|e| CliError::Run(format!("cannot encode scenario {name}: {e}")))?;
            let path = out
                .clone()
                .unwrap_or_else(|| replend_scenario::shipped_path(name));
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent).map_err(|e| {
                    CliError::Run(format!("cannot create {}: {e}", parent.display()))
                })?;
            }
            std::fs::write(&path, &bytes)
                .map_err(|e| CliError::Run(format!("cannot write {}: {e}", path.display())))?;
            Ok(format!(
                "wrote {} ({} bytes, seed {})\n",
                path.display(),
                bytes.len(),
                scenario.seed
            ))
        }
    }
}

/// Executes `replend serve`: opens (and replays) the journal when one
/// was requested, runs the synthetic ingest workload with concurrent
/// readers, and prints the operational summary. Everything printed
/// except the read count is deterministic in (seed, workload shape).
fn run_serve(args: &ServeArgs) -> Result<String, CliError> {
    let config = args.service_config();
    let serve_failed = |e: replend_core::ServeError| CliError::Run(format!("serve failed: {e}"));

    let (service, replayed) = match &args.journal {
        Some(path) => {
            let (service, summary) = ReputationService::open(config, path).map_err(serve_failed)?;
            (service, Some(summary))
        }
        None => (ReputationService::in_memory(config), None),
    };
    let report = run_ingest_workload(&service, args.workload()).map_err(serve_failed)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "replend serve: {} subjects, {} rounds × {} opinions, {} reader thread(s), \
         {} partition(s), seed {}",
        args.subjects, args.rounds, args.batch, args.readers, args.partitions, args.seed
    );
    match (&args.journal, replayed) {
        (Some(path), Some(summary)) => {
            let sync = match args.journal_sync {
                SyncPolicy::Always => "always".to_string(),
                SyncPolicy::Batch(n) => format!("batch:{n}"),
            };
            let _ = writeln!(
                out,
                "  journal: {} (sync {}, replayed {} op(s), {} byte(s){})",
                path.display(),
                sync,
                summary.records,
                summary.bytes,
                if summary.truncated_torn_tail {
                    ", torn tail truncated"
                } else {
                    ""
                }
            );
            if summary.restored_from_checkpoint() {
                let _ = writeln!(
                    out,
                    "  checkpoint: restored generation {} ({} op(s) pre-applied, \
                     {} op(s) replayed from the journal suffix)",
                    summary.checkpoint_generation,
                    summary.replayed_from_checkpoint,
                    summary.replayed_from_journal()
                );
            } else {
                let _ = writeln!(out, "  checkpoint: none (full journal replay)");
            }
            if let Some(every) = args.checkpoint_every {
                let _ = writeln!(out, "  auto-checkpoint: every {every} op(s)");
            }
        }
        _ => {
            let _ = writeln!(out, "  journal: off (in-memory)");
        }
    }
    let _ = writeln!(out, "  registered subjects    {}", report.registered);
    let _ = writeln!(out, "  ingested opinions      {}", report.feedback);
    let _ = writeln!(out, "  reads during ingest    {}", report.reads);
    let _ = writeln!(
        out,
        "  status census (min obs {}, throttle < {}, ban < {}):",
        args.min_observations, args.throttle_below, args.ban_below
    );
    let _ = writeln!(out, "    whitelisted  {}", report.census.whitelisted);
    let _ = writeln!(out, "    throttled    {}", report.census.throttled);
    let _ = writeln!(out, "    banned       {}", report.census.banned);
    Ok(out)
}

/// Executes `replend compact`: opens the journalled service (replaying
/// checkpoint + journal exactly as `serve` would), takes a durable
/// checkpoint, and compacts the journal to empty. The next open
/// restores from the checkpoint and replays nothing.
fn run_compact(args: &ServeArgs) -> Result<String, CliError> {
    let path = args.journal.clone().expect("parse requires --journal");
    let serve_failed = |e: replend_core::ServeError| CliError::Run(format!("compact failed: {e}"));
    let (service, summary) =
        ReputationService::open(args.service_config(), &path).map_err(serve_failed)?;
    let report = service.checkpoint().map_err(serve_failed)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "replend compact: {} ({} partition(s), seed {})",
        path.display(),
        args.partitions,
        args.seed
    );
    let _ = writeln!(
        out,
        "  opened: {} op(s) from checkpoint, {} op(s) from journal{}",
        summary.replayed_from_checkpoint,
        summary.replayed_from_journal(),
        if summary.truncated_torn_tail {
            " (torn tail truncated)"
        } else {
            ""
        }
    );
    let _ = writeln!(
        out,
        "  checkpoint: generation {} covering {} op(s), {} byte(s) at {}",
        report.generation,
        report.ops,
        report.bytes,
        replend_core::serve::checkpoint_path(&path).display()
    );
    let _ = writeln!(out, "  journal compacted to 0 byte(s)");
    let _ = writeln!(out, "  subjects               {}", service.subjects());
    let census = service.status_census();
    let _ = writeln!(
        out,
        "  status census (min obs {}, throttle < {}, ban < {}):",
        args.min_observations, args.throttle_below, args.ban_below
    );
    let _ = writeln!(out, "    whitelisted  {}", census.whitelisted);
    let _ = writeln!(out, "    throttled    {}", census.throttled);
    let _ = writeln!(out, "    banned       {}", census.banned);
    Ok(out)
}

/// A mean or rate to four decimals, `n/a` when there is none.
fn or_na(value: Option<f64>) -> String {
    value
        .map(|v| format!("{v:.4}"))
        .unwrap_or_else(|| "n/a".into())
}

/// Renders a member-reputation histogram bucket table.
fn render_histogram(out: &mut String, title: &str, buckets: &[u64]) {
    let n = buckets.len();
    let total: u64 = buckets.iter().sum();
    let _ = writeln!(out, "{title}");
    for (i, &b) in buckets.iter().enumerate() {
        let lo = i as f64 / n as f64;
        let hi = (i + 1) as f64 / n as f64;
        let bar_len = (b * 50).checked_div(total).unwrap_or(0) as usize;
        let _ = writeln!(
            out,
            "    [{lo:.2}, {hi:.2})  {b:>7}  {}",
            "#".repeat(bar_len)
        );
    }
}

/// Renders a fixed-interval reputation series averaged element-wise
/// across communities. Communities with no cooperative members at a
/// sample tick are excluded from that tick's mean; a tick where
/// *every* community was empty prints `n/a` instead of a fabricated
/// 0.0.
fn render_series(out: &mut String, interval: u64, series: &[Vec<Option<f64>>]) {
    let Some(averaged) = average_present(series) else {
        return;
    };
    let _ = writeln!(out, "  reputation series (every {interval} ticks):");
    for (i, mean) in averaged.iter().enumerate() {
        let _ = writeln!(
            out,
            "    t={:>9}  {}",
            (i as u64 + 1) * interval,
            or_na(*mean)
        );
    }
}

/// Executes `replend run`: K = `--communities` independent communities
/// run in parallel as one [`CommunityCluster`], then merged aggregates
/// plus a per-community table. K = 1 simulates the one community
/// seeded with `seed_for_run(seed, 0)`.
fn run_simulation(args: &RunArgs) -> String {
    let builder = CommunityBuilder::new(args.config)
        .policy(args.policy)
        .engine(EngineKind::default())
        .departure_rate(args.departure_rate);
    let mut cluster = CommunityCluster::build(builder, args.communities, args.seed);
    let ticks = args.config.sim.num_trans;
    if args.histogram > 0 {
        cluster.set_histogram_buckets(args.histogram);
    }
    let series: Vec<Vec<Option<f64>>> = if args.sample > 0 {
        cluster.run_sampled(ticks, args.sample)
    } else {
        cluster.run(ticks);
        Vec::new()
    };

    let pop = cluster.population();
    let stats = cluster.stats();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "replend: {} ticks × {} communities (parallel cluster), policy {}, topology {}, \
         seed {}",
        ticks,
        cluster.len(),
        args.policy.name(),
        args.config.sim.topology,
        args.seed
    );
    let _ = writeln!(out, "  merged population:");
    let _ = writeln!(out, "    cooperative members    {}", pop.cooperative);
    let _ = writeln!(out, "    uncooperative members  {}", pop.uncooperative);
    let _ = writeln!(out, "    waiting                {}", pop.waiting);
    let _ = writeln!(out, "    refused                {}", pop.refused);
    let _ = writeln!(
        out,
        "    success rate           {}",
        or_na(stats.success_rate())
    );
    let _ = writeln!(
        out,
        "    mean coop reputation   {}",
        or_na(cluster.mean_cooperative_reputation())
    );
    let _ = writeln!(
        out,
        "    mean uncoop reputation {}",
        or_na(cluster.mean_uncooperative_reputation())
    );
    let _ = writeln!(
        out,
        "  per community (seed schedule order):\n\
         \x20   idx   members  coop  uncoop  waiting  coop rep  success"
    );
    for (index, r) in cluster.reports().iter().enumerate() {
        let _ = writeln!(
            out,
            "    {:>3}  {:>8}  {:>4}  {:>6}  {:>7}  {:>8}  {:>7}",
            index,
            r.population.members,
            r.population.cooperative,
            r.population.uncooperative,
            r.population.waiting,
            or_na(r.mean_coop_rep),
            or_na(r.stats.success_rate()),
        );
    }
    if args.histogram > 0 {
        let hist = cluster
            .reputation_histogram()
            .expect("histogram buckets were requested before the run");
        render_histogram(
            &mut out,
            &format!(
                "  merged member reputation histogram ({} buckets):",
                args.histogram
            ),
            hist.buckets(),
        );
    }
    render_series(&mut out, args.sample, &series);
    out
}

/// Parses and executes in one step — the `main` entry point.
pub fn run_cli(args: &[String]) -> Result<String, CliError> {
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    execute(parse_args(&refs)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse_args(&[]), Ok(Command::Help));
        assert_eq!(parse_args(&["help"]), Ok(Command::Help));
        assert_eq!(parse_args(&["--help"]), Ok(Command::Help));
    }

    #[test]
    fn table1_command() {
        assert_eq!(parse_args(&["table1"]), Ok(Command::Table1));
        let text = execute(Command::Table1).unwrap();
        assert!(text.contains("introAmt=0.1"));
        assert!(text.contains("numSM=6"));
    }

    #[test]
    fn unknown_command_and_flag() {
        assert!(parse_args(&["frobnicate"]).is_err());
        assert!(parse_args(&["run", "--frobnicate", "1"]).is_err());
    }

    #[test]
    fn run_defaults() {
        let Command::Run(args) = parse_args(&["run"]).unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(args.config.sim.num_trans, 50_000);
        assert_eq!(args.policy, BootstrapPolicy::ReputationLending);
        assert_eq!(args.communities, 1);
    }

    #[test]
    fn run_parses_all_flags() {
        let Command::Run(args) = parse_args(&[
            "run",
            "--ticks",
            "1000",
            "--lambda",
            "0.05",
            "--num-init",
            "100",
            "--num-sm",
            "4",
            "--f-uncoop",
            "0.4",
            "--f-naive",
            "0.2",
            "--err-sel",
            "0.05",
            "--topology",
            "zipf",
            "--policy",
            "open",
            "--intro-amt",
            "0.2",
            "--reward",
            "0.04",
            "--wait",
            "500",
            "--audit-trans",
            "10",
            "--min-intro",
            "0.45",
            "--departure-rate",
            "0.001",
            "--seed",
            "9",
            "--sample",
            "250",
        ])
        .unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(args.config.sim.num_trans, 1000);
        assert_eq!(args.config.sim.num_sm, 4);
        assert_eq!(args.config.sim.topology, TopologyKind::Zipf);
        assert_eq!(args.policy, BootstrapPolicy::OpenAdmission { initial: 0.5 });
        assert_eq!(args.config.lending.wait_period, 500);
        assert_eq!(args.config.lending.min_intro_override, Some(0.45));
        assert!((args.departure_rate - 0.001).abs() < 1e-12);
        assert_eq!(args.seed, 9);
        assert_eq!(args.sample, 250);
    }

    #[test]
    fn run_rejects_invalid_config() {
        assert!(parse_args(&["run", "--f-uncoop", "2.0"]).is_err());
        assert!(parse_args(&["run", "--ticks"]).is_err(), "missing value");
        assert!(parse_args(&["run", "--ticks", "abc"]).is_err());
    }

    #[test]
    fn zero_counts_are_friendly_usage_errors_not_panics() {
        // Each of these would otherwise travel on to an `assert!`
        // deep inside the engine/cluster; they must die at parse time
        // with a message naming the flag.
        let err = parse_args(&["run", "--communities", "0"]).unwrap_err();
        assert!(
            err.to_string().contains("--communities") && err.to_string().contains("at least 1"),
            "{err}"
        );
    }

    #[test]
    fn engine_tuning_knobs_are_gone() {
        for (args, expect) in [
            (&["calibrate"][..], "unknown command"),
            (&["worker"], "unknown command"),
            (&["worker", "--profile", "host.profile"], "unknown command"),
            (&["run", "--shards", "4"], "unknown flag"),
            (&["run", "--batch-min", "64"], "unknown flag"),
            (&["run", "--profile", "host.profile"], "unknown flag"),
            (&["run", "--runs", "2"], "unknown flag"),
            (
                &["run", "--communities", "2", "--workers", "2"],
                "unknown flag",
            ),
            (&["serve", "--profile", "host.profile"], "unknown flag"),
            (
                &["compact", "--journal", "j.wal", "--profile", "host.profile"],
                "unknown flag",
            ),
            (
                &["scenario", "run", "x.scn", "--shards", "4"],
                "unknown flag",
            ),
        ] {
            let err = parse_args(args).unwrap_err();
            assert!(err.to_string().contains(expect), "{args:?}: {err}");
        }
    }

    #[test]
    fn policies_and_topologies_parse() {
        for (raw, expect) in [
            ("lending", BootstrapPolicy::ReputationLending),
            ("open", BootstrapPolicy::OpenAdmission { initial: 0.5 }),
            ("fixed-credit", BootstrapPolicy::FixedCredit { credit: 0.1 }),
            ("positive-only", BootstrapPolicy::PositiveOnly),
            ("complaints-only", BootstrapPolicy::ComplaintsOnly),
        ] {
            assert_eq!(parse_policy(raw).unwrap(), expect);
        }
        assert!(parse_policy("bogus").is_err());
        assert!(parse_topology("bogus").is_err());
    }

    #[test]
    fn execute_small_run_produces_summary() {
        // No --communities: a plain run is a one-community cluster,
        // and that community is the solo one seeded with
        // seed_for_run(seed, 0).
        let cmd = parse_args(&[
            "run",
            "--ticks",
            "2000",
            "--num-init",
            "50",
            "--lambda",
            "0.02",
            "--seed",
            "5",
            "--sample",
            "1000",
            "--histogram",
            "5",
        ])
        .unwrap();
        let Command::Run(args) = &cmd else {
            panic!("expected Run");
        };
        let mut solo = CommunityBuilder::new(args.config)
            .policy(args.policy)
            .engine(EngineKind::default())
            .departure_rate(args.departure_rate)
            .seed(replend_types::hash::seed_for_run(5, 0))
            .build();
        solo.run(2000);
        let pop = solo.population();
        let text = execute(cmd).unwrap();
        assert!(text.contains("× 1 communities"), "{text}");
        for line in [
            format!("    cooperative members    {}\n", pop.cooperative),
            format!("    uncooperative members  {}\n", pop.uncooperative),
            format!("    waiting                {}\n", pop.waiting),
            format!("    refused                {}\n", pop.refused),
            format!(
                "    success rate           {}\n",
                or_na(solo.stats().success_rate())
            ),
            format!(
                "    mean coop reputation   {}\n",
                or_na(solo.mean_cooperative_reputation())
            ),
            format!(
                "      0  {:>8}  {:>4}  {:>6}  {:>7}  {:>8}  {:>7}\n",
                pop.members,
                pop.cooperative,
                pop.uncooperative,
                pop.waiting,
                or_na(solo.mean_cooperative_reputation()),
                or_na(solo.stats().success_rate()),
            ),
        ] {
            assert!(text.contains(&line), "missing {line:?}: {text}");
        }
        assert!(!text.contains("\n      1  "), "one community row: {text}");
        assert!(text.contains("reputation series"), "{text}");
        assert!(text.contains("t="), "{text}");
        assert!(text.contains("histogram"), "{text}");
        assert!(text.contains("[0.80, 1.00)"), "{text}");
    }

    #[test]
    fn run_cli_end_to_end() {
        let out = run_cli(&["table1".to_string()]).unwrap();
        assert!(out.contains("Table-1"));
        let err = run_cli(&["nope".to_string()]).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn usage_mentions_every_flag() {
        let u = usage();
        for flag in [
            "--ticks",
            "--lambda",
            "--num-init",
            "--num-sm",
            "--f-uncoop",
            "--f-naive",
            "--err-sel",
            "--topology",
            "--policy",
            "--intro-amt",
            "--reward",
            "--wait",
            "--audit-trans",
            "--min-intro",
            "--departure-rate",
            "--seed",
            "--sample",
            "--histogram",
            "--communities",
            "--subjects",
            "--rounds",
            "--batch ",
            "--readers",
            "--partitions",
            "--journal",
            "--journal-sync",
            "--checkpoint-every",
            "--min-observations",
            "--throttle-below",
            "--ban-below",
            "--out",
        ] {
            assert!(u.contains(flag), "usage missing {flag}");
        }
        assert!(
            u.contains("replend serve"),
            "usage missing the serve subcommand"
        );
        assert!(
            u.contains("replend compact"),
            "usage missing the compact subcommand"
        );
    }

    #[test]
    fn serve_parses_all_flags() {
        assert_eq!(
            parse_args(&["serve"]),
            Ok(Command::Serve(ServeArgs::default()))
        );
        let Command::Serve(args) = parse_args(&[
            "serve",
            "--subjects",
            "500",
            "--rounds",
            "20",
            "--batch",
            "100",
            "--readers",
            "0",
            "--partitions",
            "4",
            "--num-sm",
            "3",
            "--seed",
            "7",
            "--journal",
            "/tmp/feedback.wal",
            "--journal-sync",
            "batch:16",
            "--min-observations",
            "5",
            "--throttle-below",
            "0.6",
            "--ban-below",
            "0.3",
        ])
        .unwrap() else {
            panic!("expected Serve");
        };
        assert_eq!(args.subjects, 500);
        assert_eq!(args.rounds, 20);
        assert_eq!(args.batch, 100);
        assert_eq!(args.readers, 0);
        assert_eq!(args.partitions, 4);
        assert_eq!(args.num_sm, 3);
        assert_eq!(args.seed, 7);
        assert_eq!(args.journal, Some(PathBuf::from("/tmp/feedback.wal")));
        assert_eq!(args.journal_sync, SyncPolicy::Batch(16));
        assert_eq!(args.min_observations, 5);
        assert!((args.throttle_below - 0.6).abs() < 1e-12);
        assert!((args.ban_below - 0.3).abs() < 1e-12);
    }

    #[test]
    fn serve_rejects_bad_arguments() {
        assert!(parse_args(&["serve", "--frobnicate", "1"]).is_err());
        assert!(parse_args(&["serve", "--subjects", "0"]).is_err());
        assert!(parse_args(&["serve", "--partitions", "0"]).is_err());
        assert!(parse_args(&["serve", "--batch", "0"]).is_err());
    }

    #[test]
    fn serve_threshold_mistakes_die_at_parse_time_with_flag_names() {
        // Inverted tiers: named after the flags, not the policy field.
        let err =
            parse_args(&["serve", "--throttle-below", "0.1", "--ban-below", "0.4"]).unwrap_err();
        assert!(
            err.to_string()
                .contains("--ban-below (0.4) must be strictly below --throttle-below (0.1)"),
            "{err}"
        );
        // Equal thresholds make the throttle tier empty — also named.
        let err =
            parse_args(&["serve", "--throttle-below", "0.5", "--ban-below", "0.5"]).unwrap_err();
        assert!(err.to_string().contains("strictly below"), "{err}");
        // Out-of-range values name the offending flag.
        let err = parse_args(&["serve", "--throttle-below", "1.5"]).unwrap_err();
        assert!(
            err.to_string()
                .contains("--throttle-below must lie in [0, 1]"),
            "{err}"
        );
        let err = parse_args(&["serve", "--ban-below", "-0.1"]).unwrap_err();
        assert!(
            err.to_string().contains("--ban-below must lie in [0, 1]"),
            "{err}"
        );
        // In-range, correctly ordered values still parse.
        assert!(parse_args(&["serve", "--throttle-below", "0.4", "--ban-below", "0.1"]).is_ok());
    }

    #[test]
    fn serve_parses_journal_sync_policy() {
        let parse = |raw: &str| match parse_args(&["serve", "--journal-sync", raw]) {
            Ok(Command::Serve(args)) => Ok(args.journal_sync),
            Ok(_) => unreachable!(),
            Err(e) => Err(e),
        };
        assert_eq!(parse("always").unwrap(), SyncPolicy::Always);
        assert_eq!(parse("batch:64").unwrap(), SyncPolicy::Batch(64));
        for bad in ["batch:0", "batch:1", "batch:", "batch:x", "sometimes"] {
            let err = parse(bad).unwrap_err();
            assert!(
                err.to_string().contains("--journal-sync must be"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn serve_execute_prints_census_and_is_seed_deterministic() {
        let small = |seed: &str| {
            execute(
                parse_args(&[
                    "serve",
                    "--subjects",
                    "300",
                    "--rounds",
                    "20",
                    "--batch",
                    "150",
                    "--readers",
                    "0",
                    "--seed",
                    seed,
                ])
                .unwrap(),
            )
            .unwrap()
        };
        let text = small("5");
        assert!(text.contains("replend serve: 300 subjects"), "{text}");
        assert!(text.contains("journal: off (in-memory)"), "{text}");
        assert!(text.contains("ingested opinions      3000"), "{text}");
        assert!(text.contains("status census"), "{text}");
        assert!(text.contains("whitelisted"), "{text}");
        assert!(text.contains("banned"), "{text}");
        // With no reader threads every printed byte is deterministic.
        assert_eq!(text, small("5"));
        assert_ne!(text, small("6"), "different seeds, different census");
    }

    #[test]
    fn serve_execute_journals_and_replays() {
        let path =
            std::env::temp_dir().join(format!("replend-cli-serve-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let journal = path.to_str().unwrap();
        let args = |journal: &str| {
            parse_args(&[
                "serve",
                "--subjects",
                "100",
                "--rounds",
                "5",
                "--batch",
                "50",
                "--readers",
                "0",
                "--journal",
                journal,
            ])
            .unwrap()
        };
        let first = execute(args(journal)).unwrap();
        assert!(first.contains("replayed 0 op(s)"), "{first}");
        assert!(first.contains("checkpoint: none"), "{first}");
        // Second invocation replays the first session's ops: one bulk
        // registration record + 5 batches.
        let second = execute(args(journal)).unwrap();
        assert!(second.contains("replayed 6 op(s)"), "{second}");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(replend_core::serve::checkpoint_path(&path));
    }

    #[test]
    fn compact_execute_checkpoints_and_later_serves_restore_from_it() {
        let path =
            std::env::temp_dir().join(format!("replend-cli-compact-{}.wal", std::process::id()));
        let ckpt = replend_core::serve::checkpoint_path(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&ckpt);
        let journal = path.to_str().unwrap().to_string();
        let serve = |journal: &str| {
            parse_args(&[
                "serve",
                "--subjects",
                "100",
                "--rounds",
                "5",
                "--batch",
                "50",
                "--readers",
                "0",
                "--journal",
                journal,
            ])
            .unwrap()
        };
        execute(serve(&journal)).unwrap();

        let text = execute(parse_args(&["compact", "--journal", &journal]).unwrap()).unwrap();
        assert!(text.contains("checkpoint: generation 1"), "{text}");
        assert!(text.contains("journal compacted to 0 byte(s)"), "{text}");
        assert!(text.contains("subjects               100"), "{text}");
        assert!(text.contains("status census"), "{text}");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        assert!(ckpt.exists());

        // The next serve restores from the checkpoint — nothing to
        // replay from the journal.
        let text = execute(serve(&journal)).unwrap();
        assert!(text.contains("replayed 0 op(s)"), "{text}");
        assert!(
            text.contains("checkpoint: restored generation 1 (6 op(s) pre-applied"),
            "{text}"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn compact_parse_is_strict() {
        // --journal is required.
        assert!(matches!(parse_args(&["compact"]), Err(UsageError(_))));
        // Workload flags belong to serve, not compact.
        assert!(matches!(
            parse_args(&["compact", "--journal", "x.wal", "--subjects", "5"]),
            Err(UsageError(_))
        ));
        // compact never appends, and a checkpoint syncs the journal
        // whatever the flush policy, so the policy flag is serve's.
        assert!(matches!(
            parse_args(&["compact", "--journal", "x.wal", "--journal-sync", "batch:4"]),
            Err(UsageError(_))
        ));
        let Ok(Command::Compact(args)) =
            parse_args(&["compact", "--journal", "x.wal", "--seed", "9"])
        else {
            panic!("compact with a journal parses");
        };
        assert_eq!(args.journal, Some(PathBuf::from("x.wal")));
        assert_eq!(args.seed, 9);
    }

    #[test]
    fn serve_checkpoint_every_parses_and_is_validated() {
        let Ok(Command::Serve(args)) =
            parse_args(&["serve", "--journal", "x.wal", "--checkpoint-every", "500"])
        else {
            panic!("--checkpoint-every with a journal parses");
        };
        assert_eq!(args.checkpoint_every, Some(500));
        // Zero cadence and in-memory checkpointing are caught at
        // parse time with flag-named messages.
        assert!(matches!(
            parse_args(&["serve", "--journal", "x.wal", "--checkpoint-every", "0"]),
            Err(UsageError(_))
        ));
        assert!(matches!(
            parse_args(&["serve", "--checkpoint-every", "10"]),
            Err(UsageError(_))
        ));
    }

    #[test]
    fn cluster_run_prints_merged_and_per_community_output() {
        let cmd = parse_args(&[
            "run",
            "--ticks",
            "1500",
            "--num-init",
            "40",
            "--lambda",
            "0.02",
            "--seed",
            "3",
            "--communities",
            "3",
            "--histogram",
            "4",
            "--sample",
            "500",
        ])
        .unwrap();
        let text = execute(cmd).unwrap();
        assert!(text.contains("3 communities"), "{text}");
        assert!(text.contains("merged population"), "{text}");
        assert!(text.contains("per community"), "{text}");
        assert!(text.contains("histogram"), "{text}");
        // --sample works in cluster mode too: a cross-community
        // averaged series is printed.
        assert!(
            text.contains("reputation series (every 500 ticks)"),
            "{text}"
        );
        assert!(text.contains("t="), "{text}");
        // Three per-community rows, indices 0..=2.
        for idx in ["  0  ", "  1  ", "  2  "] {
            assert!(text.contains(idx), "missing community row {idx}: {text}");
        }
    }

    // -- replend scenario ---------------------------------------------------

    use replend_scenario::{Scenario, SCENARIO_MAGIC};
    use std::path::Path;

    /// `.scn` bytes for an arbitrary payload, bypassing
    /// `encode_scenario`'s validation — how a malformed file reaches
    /// the CLI in the wild.
    fn raw_scn<T: serde::Serialize>(seed: u64, payload: &T) -> Vec<u8> {
        let envelope = replend_wire::SummaryEnvelope::wrap(seed, payload)
            .unwrap()
            .encode()
            .unwrap();
        let mut bytes = SCENARIO_MAGIC.to_vec();
        bytes.extend_from_slice(&envelope);
        bytes
    }

    fn scn_file(tag: &str, bytes: &[u8]) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("replend-cli-{tag}-{}.scn", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    fn tiny_scenario(name: &str) -> Scenario {
        let config = Table1::paper_defaults()
            .with_num_init(40)
            .with_arrival_rate(0.02)
            .with_num_trans(200);
        let mut scenario = Scenario::baseline(name, config, 7, 200);
        scenario.metrics_every = 50;
        scenario
    }

    fn run_scn(path: &Path) -> Result<String, CliError> {
        execute(parse_args(&["scenario", "run", path.to_str().unwrap()]).unwrap())
    }

    #[test]
    fn scenario_subcommands_parse() {
        assert_eq!(
            parse_args(&["scenario", "list"]),
            Ok(Command::Scenario(ScenarioCmd::List))
        );
        assert_eq!(
            parse_args(&["scenario", "run", "a.scn", "--out", "m.csv"]),
            Ok(Command::Scenario(ScenarioCmd::Run {
                file: PathBuf::from("a.scn"),
                out: Some(PathBuf::from("m.csv")),
            }))
        );
        assert_eq!(
            parse_args(&["scenario", "export", "sybil_flood"]),
            Ok(Command::Scenario(ScenarioCmd::Export {
                name: "sybil_flood".to_string(),
                out: None,
            }))
        );
        assert!(parse_args(&["scenario"]).is_err());
        assert!(parse_args(&["scenario", "frobnicate"]).is_err());
        assert!(parse_args(&["scenario", "run"]).is_err(), "missing file");
        assert!(parse_args(&["scenario", "list", "extra"]).is_err());
    }

    #[test]
    fn scenario_list_names_every_builtin() {
        let text = execute(Command::Scenario(ScenarioCmd::List)).unwrap();
        for name in replend_scenario::BUILTIN_NAMES {
            assert!(text.contains(name), "list is missing {name}:\n{text}");
        }
    }

    #[test]
    fn scenario_run_writes_the_metrics_csv() {
        let scenario = tiny_scenario("cli_tiny");
        let bytes = replend_scenario::encode_scenario(&scenario).unwrap();
        let scn = scn_file("tiny", &bytes);
        let csv = std::env::temp_dir().join(format!("replend-cli-tiny-{}.csv", std::process::id()));
        let text = execute(
            parse_args(&[
                "scenario",
                "run",
                scn.to_str().unwrap(),
                "--out",
                csv.to_str().unwrap(),
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(text.contains("scenario cli_tiny: 200 ticks"), "{text}");
        assert!(text.contains("wrote "), "{text}");
        let written = std::fs::read_to_string(&csv).unwrap();
        assert!(written.starts_with("tick,members,"), "{written}");
        assert_eq!(
            written.lines().count(),
            1 + 1 + 200 / 50,
            "header + t0 + samples"
        );
        let _ = std::fs::remove_file(&scn);
        let _ = std::fs::remove_file(&csv);
    }

    #[test]
    fn scenario_run_missing_file_is_a_runtime_error_not_usage() {
        let err = run_scn(Path::new("/nonexistent/attack.scn")).unwrap_err();
        assert!(matches!(err, CliError::Run(_)), "{err:?}");
        assert!(err.to_string().contains("cannot read scenario"), "{err}");
    }

    #[test]
    fn scenario_run_rejects_an_unknown_adversary_class_by_name() {
        // A file written by a newer replend whose seventh adversary
        // class this build does not know. The mirror payload encodes
        // field-for-field like `Scenario` (the wire format is
        // positional), with the cohort class at variant index 6.
        #[derive(serde::Serialize)]
        enum FutureClass {
            #[allow(dead_code)]
            A,
            #[allow(dead_code)]
            B,
            #[allow(dead_code)]
            C,
            #[allow(dead_code)]
            D,
            #[allow(dead_code)]
            E,
            #[allow(dead_code)]
            F,
            TimeTraveler {
                at_tick: u64,
            },
        }
        let base = tiny_scenario("future");
        // Nested tuples: the wire format writes tuples and structs as
        // prefix-free field concatenations, so this encodes exactly
        // like `Scenario`.
        let payload = (
            (&base.name, &base.description, base.seed, base.horizon),
            (base.metrics_every, &base.config, &base.policy, &base.status),
            (
                base.departure_rate,
                &base.arrival_curve,
                vec![(
                    "cohort0".to_string(),
                    FutureClass::TimeTraveler { at_tick: 0 },
                )],
                &base.faults,
            ),
        );
        let path = scn_file("future-class", &raw_scn(base.seed, &payload));
        let err = run_scn(&path).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("invalid variant index 6"), "{msg}");
        assert!(
            msg.contains("CollusionRing") && msg.contains("Freeriders"),
            "the error must name the known adversary classes: {msg}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scenario_run_rejects_out_of_range_fractions_by_name() {
        let mut scenario = tiny_scenario("badfrac");
        scenario.faults = vec![replend_scenario::FaultEvent {
            at_tick: 10,
            action: replend_scenario::FaultAction::KillFraction { fraction: 1.5 },
        }];
        let path = scn_file("bad-fraction", &raw_scn(scenario.seed, &scenario));
        let err = run_scn(&path).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        assert!(
            err.to_string()
                .contains("kill-fraction must lie in [0, 1], got 1.5"),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scenario_run_rejects_faults_past_the_horizon_by_name() {
        let mut scenario = tiny_scenario("latefault");
        scenario.faults = vec![replend_scenario::FaultEvent {
            at_tick: 9_999,
            action: replend_scenario::FaultAction::Heal,
        }];
        let path = scn_file("late-fault", &raw_scn(scenario.seed, &scenario));
        let err = run_scn(&path).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        assert!(
            err.to_string()
                .contains("heal scheduled at tick 9999, at or past the horizon 200"),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scenario_export_unknown_name_lists_the_builtins() {
        let err = execute(Command::Scenario(ScenarioCmd::Export {
            name: "frobnicate".to_string(),
            out: None,
        }))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        assert!(err.to_string().contains("churn_storm"), "{err}");
    }

    #[test]
    fn scenario_export_round_trips_through_run() {
        let out =
            std::env::temp_dir().join(format!("replend-cli-export-{}.scn", std::process::id()));
        let text = execute(Command::Scenario(ScenarioCmd::Export {
            name: "sybil_flood".to_string(),
            out: Some(out.clone()),
        }))
        .unwrap();
        assert!(text.contains("wrote "), "{text}");
        let decoded = replend_scenario::decode_scenario(&std::fs::read(&out).unwrap()).unwrap();
        assert_eq!(decoded, replend_scenario::builtin("sybil_flood").unwrap());
        let _ = std::fs::remove_file(&out);
    }
}
