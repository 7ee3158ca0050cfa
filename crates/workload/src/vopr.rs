//! The VOPR-style deterministic fuzz campaign behind the `vopr`
//! binary.
//!
//! A campaign is a pure function of one `master_seed`: case `i`
//! derives its knobs (scenario seed, template count, apps, RUs,
//! arrival process, policy, prefetch depth, head-blocking annotation,
//! preemption mode, QoS class mix, runtime fault-rate class,
//! fault-class mix, pooled device count, placement policy and tenant
//! mix) with a SplitMix64 stream, materialises the scenario, runs it
//! through [`simulate`] — or, on multi-device draws, through the fleet
//! front-end — and validates the run through the shared
//! [`CheckerRegistry`]. The `pooled-identity` checker compares the
//! subject with a second run of the same case, a run-to-run
//! determinism check; fleet cases instead partition the jobs by the
//! recorded placement decisions and check every pooled engine against
//! a dedicated engine on its routed subset.
//!
//! Every failing case is summarised by a [`Fingerprint`]
//! (`vopr-<master_seed>-<case_index>[-f<fault>]`) that
//! [`case_report`] replays deterministically to the byte-identical
//! violation report, after a greedy minimisation pass shrank the
//! scenario. Faults ([`Fault`]) deliberately corrupt the subject
//! outcome after the run — the harness's own self-check that the
//! checkers, fingerprints and the replay path all have teeth. These
//! post-run corruptions are distinct from the *runtime* fault plans
//! ([`FaultPlan`]) two thirds of the cases carry: those inject
//! transient load corruption, resident upsets and RU hard faults
//! *inside* the engine, and the campaign's coverage gate requires
//! every fault class (and every fault-aware checker) to actually
//! exercise.

use crate::arrivals::ArrivalProcess;
use crate::qos::QosSpec;
use rtr_core::{
    compute_mobility, FifoPolicy, LfdPolicy, LfuPolicy, LruPolicy, MruPolicy, RandomPolicy,
};
use rtr_manager::{
    simulate, simulate_fleet, CheckContext, CheckerRegistry, FaultPlan, FirstCandidatePolicy,
    FleetConfig, JobSpec, Lookahead, ManagerConfig, PlacementKind, PreemptionMode, PrefetchConfig,
    QosClass, RegistryReport, ReplacementPolicy, SimulationOutcome, TenantId, TraceEvent,
};
use rtr_taskgraph::generate::{self, GenConfig};
use rtr_taskgraph::TaskGraph;
use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// The prefetch depths a campaign cycles through (the acceptance
/// envelope requires 0 and 4 to be covered).
pub const DEPTHS: [usize; 4] = [0, 1, 2, 4];

/// Upper bound on candidate evaluations the minimiser may spend.
const MINIMIZE_BUDGET: usize = 200;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deliberate post-run corruption of the subject outcome — the
/// harness's self-check that a violation actually trips a checker and
/// that its fingerprint replays to the identical report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Remove the first `ExecEnd` event from the trace (trips the
    /// lifecycle/counter checkers).
    DropExecEnd,
    /// Increment `stats.reuses` by one (trips `ledger`).
    BumpReuses,
}

impl Fault {
    /// Stable label used inside fingerprints.
    pub fn name(&self) -> &'static str {
        match self {
            Fault::DropExecEnd => "drop-exec-end",
            Fault::BumpReuses => "bump-reuses",
        }
    }

    fn from_name(s: &str) -> Option<Fault> {
        match s {
            "drop-exec-end" => Some(Fault::DropExecEnd),
            "bump-reuses" => Some(Fault::BumpReuses),
            _ => None,
        }
    }

    /// Applies the corruption to a completed outcome.
    pub fn apply(&self, out: &mut SimulationOutcome) {
        match self {
            Fault::DropExecEnd => {
                if let Some(i) = out
                    .trace
                    .events
                    .iter()
                    .position(|e| matches!(e, TraceEvent::ExecEnd { .. }))
                {
                    out.trace.events.remove(i);
                }
            }
            Fault::BumpReuses => out.stats.reuses += 1,
        }
    }
}

/// The compact, replayable identity of one campaign case:
/// `vopr-<master_seed:016x>-<case_index>[-f<fault>]`. Everything else
/// (knobs, jobs, configuration) derives deterministically from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// The campaign's master seed.
    pub master_seed: u64,
    /// Index of the case within the campaign.
    pub case_index: u64,
    /// Deliberate post-run corruption, if any (self-check replays).
    pub fault: Option<Fault>,
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vopr-{:016x}-{}", self.master_seed, self.case_index)?;
        if let Some(fault) = self.fault {
            write!(f, "-f{}", fault.name())?;
        }
        Ok(())
    }
}

impl FromStr for Fingerprint {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let rest = s
            .strip_prefix("vopr-")
            .ok_or_else(|| format!("fingerprint '{s}' does not start with 'vopr-'"))?;
        let (seed_hex, rest) = rest
            .split_once('-')
            .ok_or_else(|| format!("fingerprint '{s}' is missing the case index"))?;
        let master_seed = u64::from_str_radix(seed_hex, 16)
            .map_err(|e| format!("fingerprint '{s}': bad master seed: {e}"))?;
        let (index_str, fault) = match rest.split_once("-f") {
            Some((idx, fault_name)) => {
                let fault = Fault::from_name(fault_name)
                    .ok_or_else(|| format!("fingerprint '{s}': unknown fault '{fault_name}'"))?;
                (idx, Some(fault))
            }
            None => (rest, None),
        };
        let case_index = index_str
            .parse::<u64>()
            .map_err(|e| format!("fingerprint '{s}': bad case index: {e}"))?;
        Ok(Fingerprint {
            master_seed,
            case_index,
            fault,
        })
    }
}

/// The derived knobs of one case. `depth` cycles deterministically
/// with the case index (four consecutive cases per depth), so every
/// campaign of ≥ 16 cases covers every depth; the rest streams from
/// SplitMix64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseKnobs {
    /// Seed for the template family / arrival / annotation draws.
    pub scenario_seed: u64,
    /// Template-family size (1–3).
    pub templates: usize,
    /// Number of application instances (1–12).
    pub apps: usize,
    /// RU count (1–6).
    pub rus: usize,
    /// Arrival-process selector (0–3: batch/poisson/periodic/bursty).
    pub arrival_kind: u8,
    /// Policy selector (0–7, the full replacement-policy set).
    pub policy: u8,
    /// Prefetch depth (cycled through [`DEPTHS`]).
    pub depth: usize,
    /// Head-blocking annotation: 0 = none, 1 = mobility + Skip
    /// Events, 2 = a forced one-event delay on one node per job.
    pub annotate: u8,
    /// Preemption mode (cycled through [`PreemptionMode::ALL`]).
    pub preemption: PreemptionMode,
    /// QoS class mix selector (see [`qos_mix_spec`] /
    /// [`qos_mix_label`]): 0 = uniform best-effort, 1/2 = strided
    /// high-priority mixes with deadlines.
    pub qos_mix: u8,
    /// Runtime fault-rate class (see [`fault_rate_label`]): 0 = off
    /// (the exact pre-fault code path), 1 = [`FaultPlan::low`],
    /// 2 = [`FaultPlan::high`].
    pub fault_rate: u8,
    /// Fault-class mix selector (see [`fault_plan`] /
    /// [`fault_mix_label`]): 0 = all three classes, 1 = transient
    /// loads only, 2 = resident upsets only, 3 = RU hard faults only.
    pub fault_mix: u8,
    /// Pooled device count (1/1/2/4 — half the draws stay
    /// single-device). Multi-device cases run the fleet path.
    pub devices: usize,
    /// Placement policy routing multi-device cases.
    pub placement: PlacementKind,
    /// Tenant count (1–3); jobs are stamped round-robin.
    pub tenants: usize,
}

/// The class mix a `qos_mix` selector decodes to.
pub fn qos_mix_spec(mix: u8) -> QosSpec {
    match mix % 3 {
        0 => QosSpec::UNIFORM,
        1 => QosSpec::strided(3, 5, 150),
        _ => QosSpec::strided(2, 3, 120),
    }
}

/// Stable label for a `qos_mix` selector (knob summaries, coverage).
pub fn qos_mix_label(mix: u8) -> &'static str {
    match mix % 3 {
        0 => "uniform",
        1 => "strided(3)@p5",
        _ => "strided(2)@p3",
    }
}

/// Salt decorrelating the fault-decision stream from the workload
/// streams drawn with the same scenario seed.
const FAULT_SEED_SALT: u64 = 0xFA17_5EED;

/// Stable label for a `fault_rate` selector (knob summaries, coverage).
pub fn fault_rate_label(rate: u8) -> &'static str {
    match rate % 3 {
        0 => "off",
        1 => "low",
        _ => "high",
    }
}

/// Stable label for a `fault_mix` selector (knob summaries, coverage).
pub fn fault_mix_label(mix: u8) -> &'static str {
    match mix % 4 {
        0 => "all",
        1 => "transient",
        2 => "upset",
        _ => "ru-hard",
    }
}

/// The runtime fault plan a case's fault knobs decode to. The rate
/// class picks the [`FaultPlan::low`]/[`FaultPlan::high`] preset (or
/// the exact-off plan), the mix selector masks it down to a single
/// fault class so each class is also exercised in isolation. The
/// preset's finite repair latency is kept in every mix — transient
/// give-ups quarantine their RU, and a permanently dead pool would
/// turn small-RU cases into stalls instead of checked runs.
pub fn fault_plan(rate: u8, mix: u8, scenario_seed: u64) -> FaultPlan {
    let mut plan = match rate % 3 {
        0 => return FaultPlan::off(),
        1 => FaultPlan::low(scenario_seed ^ FAULT_SEED_SALT),
        _ => FaultPlan::high(scenario_seed ^ FAULT_SEED_SALT),
    };
    match mix % 4 {
        0 => {}
        1 => {
            plan.upset_pm = 0;
            plan.ru_fault_pm = 0;
        }
        2 => {
            plan.load_fault_pm = 0;
            plan.ru_fault_pm = 0;
        }
        _ => {
            plan.load_fault_pm = 0;
            plan.upset_pm = 0;
        }
    }
    plan
}

impl CaseKnobs {
    /// Derives the knobs of case `case_index` under `master_seed`.
    pub fn derive(master_seed: u64, case_index: u64) -> CaseKnobs {
        let mut state = master_seed ^ case_index.wrapping_mul(0xA076_1D64_78BD_642F);
        let scenario_seed = splitmix64(&mut state);
        let r = splitmix64(&mut state);
        let f = splitmix64(&mut state);
        CaseKnobs {
            scenario_seed,
            templates: 1 + (r % 3) as usize,
            apps: 1 + ((r >> 8) % 12) as usize,
            rus: 1 + ((r >> 16) % 6) as usize,
            arrival_kind: ((r >> 24) % 4) as u8,
            policy: ((r >> 32) % 8) as u8,
            depth: DEPTHS[(case_index as usize / 4) % DEPTHS.len()],
            annotate: ((r >> 40) % 3) as u8,
            preemption: PreemptionMode::ALL[((r >> 48) % 3) as usize],
            qos_mix: ((r >> 52) % 3) as u8,
            fault_rate: (f % 3) as u8,
            fault_mix: ((f >> 8) % 4) as u8,
            devices: [1, 1, 2, 4][((f >> 12) % 4) as usize],
            placement: PlacementKind::ALL[((f >> 16) % 3) as usize],
            tenants: 1 + ((f >> 20) % 3) as usize,
        }
    }

    /// Lookahead implied by the policy selector (LFD variants need a
    /// future view; the rest draw one from the scenario seed, like the
    /// guard property test).
    pub fn lookahead(&self) -> Lookahead {
        match self.policy % 8 {
            6 => Lookahead::Graphs(1 + (self.scenario_seed % 3) as usize),
            7 => Lookahead::All,
            _ => match self.scenario_seed % 3 {
                0 => Lookahead::None,
                1 => Lookahead::Graphs(1 + (self.scenario_seed % 4) as usize),
                _ => Lookahead::All,
            },
        }
    }

    /// One stable line naming every knob (case reports).
    pub fn summary(&self) -> String {
        format!(
            "depth={} templates={} apps={} rus={} arrival={} \
             policy={} annotate={} preemption={} qos={} faults={}/{} \
             devices={} placement={} tenants={} \
             lookahead={:?} scenario_seed={:#018x}",
            self.depth,
            self.templates,
            self.apps,
            self.rus,
            arrival_process(self.arrival_kind).label(),
            policy_label(self.policy, self.scenario_seed),
            match self.annotate % 3 {
                0 => "none",
                1 => "mobility+skip",
                _ => "forced-delay",
            },
            self.preemption.label(),
            qos_mix_label(self.qos_mix),
            fault_rate_label(self.fault_rate),
            fault_mix_label(self.fault_mix),
            self.devices,
            self.placement.label(),
            self.tenants,
            self.lookahead(),
            self.scenario_seed,
        )
    }
}

fn arrival_process(kind: u8) -> ArrivalProcess {
    match kind % 4 {
        0 => ArrivalProcess::Batch,
        1 => ArrivalProcess::Poisson {
            mean_gap_us: 40_000,
        },
        2 => ArrivalProcess::Periodic { period_us: 35_000 },
        _ => ArrivalProcess::Bursty {
            size: 3,
            mean_gap_us: 150_000,
        },
    }
}

/// Builds the policy for selector `id` (fresh state every call).
pub fn build_policy(id: u8, seed: u64) -> Box<dyn ReplacementPolicy> {
    match id % 8 {
        0 => Box::new(FirstCandidatePolicy),
        1 => Box::new(LruPolicy::new()),
        2 => Box::new(FifoPolicy::new()),
        3 => Box::new(MruPolicy::new()),
        4 => Box::new(LfuPolicy::new()),
        5 => Box::new(RandomPolicy::new(seed)),
        6 => Box::new(LfdPolicy::local(1 + (seed % 3) as usize)),
        _ => Box::new(LfdPolicy::oracle()),
    }
}

fn policy_label(id: u8, seed: u64) -> String {
    build_policy(id, seed).name().to_string()
}

/// One fully materialised case: the jobs, the manager configuration
/// and the knobs they came from.
#[derive(Debug, Clone)]
pub struct Case {
    /// The derived knobs.
    pub knobs: CaseKnobs,
    /// Job specs (graphs, arrivals, annotations).
    pub jobs: Vec<JobSpec>,
    /// Manager configuration (RUs, lookahead, skip events, prefetch).
    pub cfg: ManagerConfig,
}

/// Materialises the case `fingerprint` identifies (fault excluded —
/// faults apply to the outcome, not the scenario).
pub fn build_case(fp: &Fingerprint) -> Case {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let knobs = CaseKnobs::derive(fp.master_seed, fp.case_index);
    let seed = knobs.scenario_seed;
    let mut rng = StdRng::seed_from_u64(seed);
    let gen_cfg = GenConfig {
        exec_us: (1_000, 25_000),
        config_base: 50,
        config_pool: Some(8),
    };
    let family: Vec<Arc<TaskGraph>> =
        generate::template_family(&mut rng, knobs.templates, &gen_cfg)
            .into_iter()
            .map(Arc::new)
            .collect();
    let cfg = ManagerConfig::paper_default()
        .with_rus(knobs.rus)
        .with_lookahead(knobs.lookahead())
        .with_skip_events(knobs.annotate % 3 == 1)
        .with_prefetch(PrefetchConfig::with_depth(knobs.depth))
        .with_preemption(knobs.preemption)
        .with_faults(fault_plan(knobs.fault_rate, knobs.fault_mix, seed))
        .with_trace(true);
    let arrivals = arrival_process(knobs.arrival_kind).generate(knobs.apps, seed ^ 0x5EED);
    let mut jobs: Vec<JobSpec> = (0..knobs.apps)
        .map(|i| {
            let graph = Arc::clone(&family[i % family.len()]);
            let mut job = JobSpec::new(Arc::clone(&graph))
                .with_arrival(arrivals[i])
                .with_tenant(TenantId((i % knobs.tenants) as u32));
            match knobs.annotate % 3 {
                1 => {
                    let mobility =
                        Arc::new(compute_mobility(&graph, &cfg).expect("mobility computes"));
                    job = job.with_mobility(mobility);
                }
                2 => {
                    let mut delays = vec![0u32; graph.len()];
                    delays[(seed as usize + i) % graph.len()] = 1;
                    job = job.with_forced_delays(Arc::new(delays));
                }
                _ => {}
            }
            job
        })
        .collect();
    let sequence: Vec<Arc<TaskGraph>> = jobs.iter().map(|j| Arc::clone(&j.graph)).collect();
    if let Some(classes) = qos_mix_spec(knobs.qos_mix).assign(&sequence, &arrivals, knobs.rus) {
        for (job, class) in jobs.iter_mut().zip(classes) {
            job.qos = class;
        }
    }
    Case { knobs, jobs, cfg }
}

/// How a case concluded.
#[derive(Debug)]
pub enum CaseStatus {
    /// Both runs completed; the registry validated the subject.
    Checked(rtr_manager::RegistryReport),
    /// Subject and reference stalled identically — checkers skipped.
    /// With correct inputs a stall has two causes: a skip waited for a
    /// following event that never comes (an infeasible forced delay),
    /// or a task requeued by a permanent RU fault found every usable RU
    /// claimed. A pool whose every RU is quarantined lands here too.
    Stalled,
    /// Subject and reference disagreed about completing — a
    /// determinism violation in its own right.
    StallMismatch(String),
}

/// Runtime-fault injections observed in one checked case's subject
/// trace (all zero for stalled or fault-off cases).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaseFaultCounts {
    /// Transient load corruptions injected.
    pub transients: u64,
    /// Resident-configuration upsets injected.
    pub upsets: u64,
    /// RU hard faults injected.
    pub ru_hard: u64,
}

/// One case's full result: its fingerprint, knobs and verdict.
#[derive(Debug)]
pub struct CaseOutcome {
    /// The case's replayable identity.
    pub fingerprint: Fingerprint,
    /// Its derived knobs.
    pub knobs: CaseKnobs,
    /// Runtime-fault injections the subject trace recorded.
    pub faults: CaseFaultCounts,
    /// The verdict.
    pub status: CaseStatus,
}

/// The pseudo-checker name attributed to stall mismatches in failure
/// bookkeeping (it is not a registry checker).
pub const STALL_MISMATCH: &str = "stall-mismatch";

impl CaseOutcome {
    /// Total violations (a stall mismatch counts as one).
    pub fn violation_count(&self) -> usize {
        match &self.status {
            CaseStatus::Checked(report) => report.violation_count(),
            CaseStatus::Stalled => 0,
            CaseStatus::StallMismatch(_) => 1,
        }
    }

    /// Names of the checkers that failed ([`STALL_MISMATCH`] for a
    /// stall mismatch).
    pub fn failing(&self) -> Vec<&'static str> {
        match &self.status {
            CaseStatus::Checked(report) => report.failing(),
            CaseStatus::Stalled => Vec::new(),
            CaseStatus::StallMismatch(_) => vec![STALL_MISMATCH],
        }
    }

    /// Renders the stable, replay-stable report for this case.
    pub fn render(&self) -> String {
        let mut s = format!(
            "case {}\nknobs: {}\n",
            self.fingerprint,
            self.knobs.summary()
        );
        match &self.status {
            CaseStatus::Checked(report) => {
                s.push_str(&format!(
                    "verdict: {}\n",
                    if report.is_clean() {
                        "clean".to_string()
                    } else {
                        format!("{} violation(s)", report.violation_count())
                    }
                ));
                s.push_str(&report.render());
            }
            CaseStatus::Stalled => {
                s.push_str("verdict: stalled (subject and reference agree)\n");
            }
            CaseStatus::StallMismatch(msg) => {
                s.push_str(&format!("verdict: stall mismatch\n  - {msg}\n"));
            }
        }
        s
    }
}

/// The per-device manager configurations of a multi-device case: RU
/// counts are staggered from the case's own (`1 + ((rus - 1 + d) % 6)`
/// for device `d`, keeping every count in the legal 1–6 band), and an
/// active fault plan is re-salted per device so the pooled engines
/// draw decorrelated injection streams (device 0 keeps the
/// single-device plan).
pub fn fleet_device_configs(case: &Case) -> Vec<ManagerConfig> {
    (0..case.knobs.devices)
        .map(|d| {
            let rus = 1 + ((case.knobs.rus - 1 + d) % 6);
            let mut cfg = case.cfg.clone().with_rus(rus);
            if !cfg.faults.is_off() {
                cfg = cfg.with_faults(fault_plan(
                    case.knobs.fault_rate,
                    case.knobs.fault_mix,
                    case.knobs.scenario_seed ^ ((d as u64) << 32),
                ));
            }
            cfg
        })
        .collect()
}

/// Runs a multi-device case through the fleet front-end. The subject
/// is one [`simulate_fleet`] run; the reference partitions the jobs by
/// the recorded placement decisions and re-runs each device's routed
/// subset through an independent [`simulate`] — the fleet contract in
/// miniature (the pooled engine must be indistinguishable from a
/// dedicated one). Every device outcome is validated through the full
/// registry against its partitioned reference, and the fleet checkers
/// ride on device 0's context.
fn run_fleet_case(fp: &Fingerprint, case: &Case, registry: &CheckerRegistry) -> CaseOutcome {
    let devices = fleet_device_configs(case);
    let device_rus: Vec<usize> = devices.iter().map(|c| c.rus).collect();
    let cfg = FleetConfig::new(devices, case.knobs.placement).with_decisions(true);
    let build = || build_policy(case.knobs.policy, case.knobs.scenario_seed);
    let mut faults = CaseFaultCounts::default();
    let status = match simulate_fleet(&cfg, &case.jobs, build) {
        Ok(mut outcome) => {
            if let Some(fault) = fp.fault {
                fault.apply(&mut outcome.devices[0]);
            }
            for dev in &outcome.devices {
                let counts = dev.trace.counts();
                faults.transients += counts.fault_transients;
                faults.upsets += counts.fault_upsets;
                faults.ru_hard += counts.fault_ru;
            }
            let mut routed: Vec<Vec<JobSpec>> = vec![Vec::new(); cfg.devices.len()];
            for d in &outcome.decisions {
                routed[d.device].push(case.jobs[d.submit_index].clone());
            }
            let mut references = Vec::with_capacity(cfg.devices.len());
            let mut mismatch = None;
            for (d, dev_cfg) in cfg.devices.iter().enumerate() {
                let mut policy = build();
                match simulate(dev_cfg, &routed[d], policy.as_mut()) {
                    Ok(reference) => references.push(reference),
                    Err(e) => {
                        mismatch = Some(format!(
                            "fleet subject completed but the reference run of \
                             device {d} stalled with {e:?}"
                        ));
                        break;
                    }
                }
            }
            match mismatch {
                Some(msg) => CaseStatus::StallMismatch(msg),
                None => {
                    let info = outcome.check_info(&cfg, &device_rus);
                    let mut merged: Vec<rtr_manager::CheckerOutcome> = Vec::new();
                    for (d, dev) in outcome.devices.iter().enumerate() {
                        let cx = CheckContext::new(
                            &dev.trace,
                            &routed[d],
                            cfg.devices[d].device.reconfig_latency,
                            Some(&dev.stats),
                        )
                        .with_reference(&references[d])
                        .with_prefetch_depth(case.knobs.depth)
                        .with_fault_plan(&cfg.devices[d].faults);
                        let cx = if d == 0 { cx.with_fleet(&info) } else { cx };
                        let report = registry.run(&cx);
                        if merged.is_empty() {
                            merged = report.outcomes;
                        } else {
                            // Registry order is stable run to run, so
                            // the outcome rows zip by position.
                            for (m, o) in merged.iter_mut().zip(report.outcomes) {
                                m.fired += o.fired;
                                m.violations.extend(o.violations);
                            }
                        }
                    }
                    CaseStatus::Checked(RegistryReport { outcomes: merged })
                }
            }
        }
        // The fleet cannot partition jobs without decisions from a
        // completed run; a stall is legitimate only if it replays
        // identically.
        Err(a) => match simulate_fleet(&cfg, &case.jobs, build) {
            Err(b) if a == b => CaseStatus::Stalled,
            Err(b) => CaseStatus::StallMismatch(format!(
                "fleet subject stalled with {a:?} but the replay stalled with {b:?}"
            )),
            Ok(_) => CaseStatus::StallMismatch(format!(
                "fleet subject stalled with {a:?} but the replay completed"
            )),
        },
    };
    CaseOutcome {
        fingerprint: *fp,
        knobs: case.knobs,
        faults,
        status,
    }
}

/// Runs one materialised case, applies `fault` to the subject outcome,
/// and validates through `registry`. The reference is a second
/// [`simulate`] of the same case, so `pooled-identity` checks
/// run-to-run determinism. Multi-device knob draws route through the
/// fleet front-end instead (`run_fleet_case`).
pub fn run_case(fp: &Fingerprint, case: &Case, registry: &CheckerRegistry) -> CaseOutcome {
    if case.knobs.devices > 1 {
        return run_fleet_case(fp, case, registry);
    }
    let run = || {
        let mut policy = build_policy(case.knobs.policy, case.knobs.scenario_seed);
        simulate(&case.cfg, &case.jobs, policy.as_mut())
    };
    let subject = run();
    let reference = run();
    let mut faults = CaseFaultCounts::default();
    let status = match (subject, reference) {
        (Ok(mut subject), Ok(reference)) => {
            if let Some(fault) = fp.fault {
                fault.apply(&mut subject);
            }
            let counts = subject.trace.counts();
            faults = CaseFaultCounts {
                transients: counts.fault_transients,
                upsets: counts.fault_upsets,
                ru_hard: counts.fault_ru,
            };
            let cx = CheckContext::new(
                &subject.trace,
                &case.jobs,
                case.cfg.device.reconfig_latency,
                Some(&subject.stats),
            )
            .with_reference(&reference)
            .with_prefetch_depth(case.knobs.depth)
            .with_fault_plan(&case.cfg.faults);
            CaseStatus::Checked(registry.run(&cx))
        }
        (Err(a), Err(b)) if a == b => CaseStatus::Stalled,
        (Err(a), Err(b)) => CaseStatus::StallMismatch(format!(
            "subject stalled with {a:?} but the reference run stalled with {b:?}"
        )),
        (Ok(_), Err(b)) => CaseStatus::StallMismatch(format!(
            "subject completed but the reference run stalled with {b:?}"
        )),
        (Err(a), Ok(_)) => CaseStatus::StallMismatch(format!(
            "subject stalled with {a:?} but the reference run completed"
        )),
    };
    CaseOutcome {
        fingerprint: *fp,
        knobs: case.knobs,
        faults,
        status,
    }
}

/// Re-runs a (possibly minimised) case and reports whether any of the
/// originally failing checkers still fails.
fn fails_like(
    fp: &Fingerprint,
    case: &Case,
    registry: &CheckerRegistry,
    failing: &BTreeSet<&'static str>,
) -> bool {
    run_case(fp, case, registry)
        .failing()
        .iter()
        .any(|name| failing.contains(name))
}

/// The summary of one greedy minimisation pass.
#[derive(Debug, Default)]
pub struct MinimizeSummary {
    /// Human-readable shrink steps that were kept.
    pub steps: Vec<String>,
    /// Candidate evaluations spent.
    pub evaluations: usize,
}

/// Greedy scenario minimiser: drop job chunks (ddmin-style), then
/// simplify knobs (prefetch off, annotations stripped, QoS stripped,
/// runtime faults stripped, fleet stripped to a single device, fewer
/// RUs) — keeping a candidate only while at least one of the
/// originally failing checkers still fails. Deterministic, and bounded
/// to 200 candidate evaluations.
pub fn minimize_case(
    fp: &Fingerprint,
    case: &Case,
    registry: &CheckerRegistry,
) -> (Case, MinimizeSummary) {
    let failing: BTreeSet<&'static str> =
        run_case(fp, case, registry).failing().into_iter().collect();
    let mut summary = MinimizeSummary::default();
    if failing.is_empty() {
        return (case.clone(), summary);
    }
    let mut best = case.clone();
    let mut evals = 0usize;
    let try_candidate = |candidate: &Case, evals: &mut usize| -> bool {
        if *evals >= MINIMIZE_BUDGET {
            return false;
        }
        *evals += 1;
        fails_like(fp, candidate, registry, &failing)
    };

    // 1. Drop job chunks, halving the chunk size down to single jobs.
    let mut chunk = best.jobs.len().div_ceil(2);
    while chunk >= 1 {
        let mut i = 0;
        while i < best.jobs.len() {
            let mut candidate = best.clone();
            let upper = (i + chunk).min(candidate.jobs.len());
            candidate.jobs.drain(i..upper);
            if try_candidate(&candidate, &mut evals) {
                summary.steps.push(format!(
                    "dropped jobs [{i}..{upper}) ({} left)",
                    candidate.jobs.len()
                ));
                best = candidate;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }

    // 2. Prefetch off.
    if best.knobs.depth != 0 {
        let mut candidate = best.clone();
        candidate.knobs.depth = 0;
        candidate.cfg = candidate.cfg.with_prefetch(PrefetchConfig::off());
        if try_candidate(&candidate, &mut evals) {
            summary.steps.push("prefetch depth -> 0".into());
            best = candidate;
        }
    }

    // 3. Strip head-blocking annotations.
    if !best.knobs.annotate.is_multiple_of(3) {
        let mut candidate = best.clone();
        candidate.knobs.annotate = 0;
        candidate.cfg = candidate.cfg.with_skip_events(false);
        for job in &mut candidate.jobs {
            job.mobility = None;
            job.forced_delays = None;
        }
        if try_candidate(&candidate, &mut evals) {
            summary.steps.push("annotations stripped".into());
            best = candidate;
        }
    }

    // 4. Strip QoS (preemption off, every job back to best-effort).
    if best.knobs.preemption != PreemptionMode::Off || best.jobs.iter().any(|j| !j.qos.is_default())
    {
        let mut candidate = best.clone();
        candidate.knobs.preemption = PreemptionMode::Off;
        candidate.knobs.qos_mix = 0;
        candidate.cfg = candidate.cfg.with_preemption(PreemptionMode::Off);
        for job in &mut candidate.jobs {
            job.qos = QosClass::default();
        }
        if try_candidate(&candidate, &mut evals) {
            summary.steps.push("qos stripped".into());
            best = candidate;
        }
    }

    // 5. Strip runtime faults.
    if !best.cfg.faults.is_off() {
        let mut candidate = best.clone();
        candidate.knobs.fault_rate = 0;
        candidate.cfg = candidate.cfg.with_faults(FaultPlan::off());
        if try_candidate(&candidate, &mut evals) {
            summary.steps.push("faults stripped".into());
            best = candidate;
        }
    }

    // 6. Strip the fleet down to a single dedicated device (tenant
    // stamps included — the engine ignores them, but a minimal
    // reproduction should not advertise knobs it no longer needs).
    if best.knobs.devices > 1 {
        let mut candidate = best.clone();
        candidate.knobs.devices = 1;
        candidate.knobs.tenants = 1;
        for job in &mut candidate.jobs {
            job.tenant = TenantId::DEFAULT;
        }
        if try_candidate(&candidate, &mut evals) {
            summary.steps.push("fleet -> single device".into());
            best = candidate;
        }
    }

    // 7. Fewest RUs that still fail.
    for rus in 1..best.knobs.rus {
        let mut candidate = best.clone();
        candidate.knobs.rus = rus;
        candidate.cfg = candidate.cfg.with_rus(rus);
        if try_candidate(&candidate, &mut evals) {
            summary.steps.push(format!("rus -> {rus}"));
            best = candidate;
            break;
        }
    }

    summary.evaluations = evals;
    (best, summary)
}

/// A case report: the outcome plus its stable rendering (with the
/// minimised reproduction appended when minimisation ran). Replaying
/// the same fingerprint yields the byte-identical `rendered` string.
#[derive(Debug)]
pub struct CaseReport {
    /// The (unminimised) case outcome.
    pub outcome: CaseOutcome,
    /// The stable violation report.
    pub rendered: String,
}

/// The public replay API: materialises the fingerprint's case, runs
/// it, and (for failing cases, when `minimize` is set) appends the
/// greedy minimiser's reproduction. Pure function of
/// `(fingerprint, registry configuration, minimize)`.
pub fn case_report(fp: &Fingerprint, registry: &CheckerRegistry, minimize: bool) -> CaseReport {
    let case = build_case(fp);
    let outcome = run_case(fp, &case, registry);
    let mut rendered = outcome.render();
    if minimize && outcome.violation_count() > 0 {
        let (min_case, summary) = minimize_case(fp, &case, registry);
        if summary.steps.is_empty() {
            rendered.push_str("minimized: no shrink kept\n");
        } else {
            rendered.push_str(&format!(
                "minimized ({} evaluations): {}\n",
                summary.evaluations,
                summary.steps.join(", ")
            ));
            let min_outcome = run_case(fp, &min_case, registry);
            rendered.push_str("minimized reproduction:\n");
            rendered.push_str(&format!("knobs: {}\n", min_outcome.knobs.summary()));
            rendered.push_str(&format!("jobs: {}\n", min_case.jobs.len()));
            rendered.push_str(&min_outcome.render_status_only());
        }
    }
    CaseReport { outcome, rendered }
}

impl CaseOutcome {
    fn render_status_only(&self) -> String {
        match &self.status {
            CaseStatus::Checked(report) => report.render(),
            CaseStatus::Stalled => "stalled (subject and reference agree)\n".into(),
            CaseStatus::StallMismatch(msg) => format!("stall mismatch: {msg}\n"),
        }
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed every case derives from.
    pub master_seed: u64,
    /// Number of cases to run.
    pub cases: u64,
    /// Whether failing cases are minimised before reporting.
    pub minimize: bool,
    /// At most this many failing cases carry full reports (all are
    /// counted either way).
    pub max_reported: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            master_seed: 0x0005_EEDC,
            cases: 1000,
            minimize: true,
            max_reported: 10,
        }
    }
}

/// Per-checker campaign totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckerCoverage {
    /// The checker's registered name.
    pub name: &'static str,
    /// Assertions it evaluated across the whole campaign.
    pub fired: u64,
    /// Violations it found across the whole campaign.
    pub violations: u64,
}

/// One failing case, fingerprint plus rendered report.
#[derive(Debug)]
pub struct FailureReport {
    /// The replayable fingerprint.
    pub fingerprint: Fingerprint,
    /// The rendered (minimised) report.
    pub rendered: String,
}

/// The aggregate result of one campaign.
#[derive(Debug)]
pub struct CampaignSummary {
    /// Cases executed.
    pub cases: u64,
    /// Cases where subject and reference stalled identically.
    pub stalled: u64,
    /// Cases with at least one violation.
    pub violating_cases: u64,
    /// Completed (checked) cases per depth, indexed like [`DEPTHS`].
    pub depth_cases: [u64; 4],
    /// Cases per preemption mode, indexed like [`PreemptionMode::ALL`].
    pub preemption_cases: [u64; 3],
    /// Cases per QoS class mix, indexed by the `qos_mix` selector.
    pub qos_mix_cases: [u64; 3],
    /// Cases per runtime fault-rate class (off / low / high).
    pub fault_rate_cases: [u64; 3],
    /// Cases per fault-class mix selector (all / transient / upset /
    /// ru-hard), counting fault-active cases only.
    pub fault_mix_cases: [u64; 4],
    /// Total runtime injections per fault class across all checked
    /// cases (transient loads / upsets / RU hard faults).
    pub fault_injections: [u64; 3],
    /// Cases per pooled device count (1 / 2 / 4 devices).
    pub device_cases: [u64; 3],
    /// Multi-device cases per placement policy, indexed like
    /// [`PlacementKind::ALL`] (single-device cases never exercise
    /// placement and are not counted).
    pub placement_cases: [u64; 3],
    /// Per-checker fired/violation totals, in registry order.
    pub coverage: Vec<CheckerCoverage>,
    /// Stall-mismatch failures (not attributable to one checker).
    pub stall_mismatches: u64,
    /// Full reports for the first failing cases.
    pub failures: Vec<FailureReport>,
}

impl CampaignSummary {
    /// True when no case produced a violation.
    pub fn is_clean(&self) -> bool {
        self.violating_cases == 0
    }

    /// Names of registered checkers that never fired — silent holes
    /// the coverage gate fails on.
    pub fn unfired(&self) -> Vec<&'static str> {
        self.coverage
            .iter()
            .filter(|c| c.fired == 0)
            .map(|c| c.name)
            .collect()
    }

    /// Names of runtime fault classes that never injected across the
    /// campaign — silent holes the coverage gate fails on (a campaign
    /// whose fault knobs never actually fire is not testing recovery).
    pub fn fault_holes(&self) -> Vec<&'static str> {
        ["transient-load", "upset", "ru-hard"]
            .iter()
            .zip(self.fault_injections)
            .filter(|(_, n)| *n == 0)
            .map(|(name, _)| *name)
            .collect()
    }

    /// Fleet-dimension coverage holes the gate fails on: a placement
    /// policy that never routed a multi-device case, or a pool width
    /// (2 / 4 devices) that never ran at all. A campaign that never
    /// pools devices is not testing the fleet layer.
    pub fn fleet_holes(&self) -> Vec<String> {
        let mut holes = Vec::new();
        for (label, n) in ["devices-2", "devices-4"]
            .iter()
            .zip(&self.device_cases[1..])
        {
            if *n == 0 {
                holes.push((*label).to_string());
            }
        }
        for (kind, n) in PlacementKind::ALL.iter().zip(self.placement_cases) {
            if n == 0 {
                holes.push(format!("placement-{}", kind.label()));
            }
        }
        holes
    }

    /// The per-checker coverage summary as CSV, with one
    /// `fault:<class>` row per runtime fault class (fired = total
    /// injections of that class), one `fleet:devices-<n>` row per pool
    /// width, one `fleet:placement-<policy>` row per placement policy
    /// (fired = cases), and the `cases:checked` and `cases:stalled`
    /// rows (fired = cases the checkers ran on / cases where subject
    /// and reference stalled identically).
    pub fn coverage_csv(&self) -> String {
        let mut s = String::from("checker,fired,violations\n");
        for c in &self.coverage {
            s.push_str(&format!("{},{},{}\n", c.name, c.fired, c.violations));
        }
        for (name, n) in ["transient-load", "upset", "ru-hard"]
            .iter()
            .zip(self.fault_injections)
        {
            s.push_str(&format!("fault:{name},{n},0\n"));
        }
        for (n, width) in self.device_cases.iter().zip([1usize, 2, 4]) {
            s.push_str(&format!("fleet:devices-{width},{n},0\n"));
        }
        for (kind, n) in PlacementKind::ALL.iter().zip(self.placement_cases) {
            s.push_str(&format!("fleet:placement-{},{n},0\n", kind.label()));
        }
        let checked = self.cases - self.stalled - self.stall_mismatches;
        s.push_str(&format!("cases:checked,{checked},0\n"));
        s.push_str(&format!("cases:stalled,{},0\n", self.stalled));
        s
    }
}

/// Runs `config.cases` seeded cases through `registry`, aggregating
/// per-checker coverage and collecting failure reports.
pub fn run_campaign(config: &CampaignConfig, registry: &CheckerRegistry) -> CampaignSummary {
    let mut summary = CampaignSummary {
        cases: 0,
        stalled: 0,
        violating_cases: 0,
        depth_cases: [0; 4],
        preemption_cases: [0; 3],
        qos_mix_cases: [0; 3],
        fault_rate_cases: [0; 3],
        fault_mix_cases: [0; 4],
        fault_injections: [0; 3],
        device_cases: [0; 3],
        placement_cases: [0; 3],
        // Coverage rows for the *enabled* checkers only: a deliberately
        // disabled checker must not read as a silent coverage hole.
        coverage: registry
            .rows()
            .into_iter()
            .filter(|(_, _, enabled)| *enabled)
            .map(|(name, _, _)| CheckerCoverage {
                name,
                fired: 0,
                violations: 0,
            })
            .collect(),
        stall_mismatches: 0,
        failures: Vec::new(),
    };
    for case_index in 0..config.cases {
        let fp = Fingerprint {
            master_seed: config.master_seed,
            case_index,
            fault: None,
        };
        let case = build_case(&fp);
        let outcome = run_case(&fp, &case, registry);
        summary.cases += 1;
        let mode_idx = PreemptionMode::ALL
            .iter()
            .position(|m| *m == outcome.knobs.preemption)
            .expect("derived preemption mode is canonical");
        summary.preemption_cases[mode_idx] += 1;
        summary.qos_mix_cases[(outcome.knobs.qos_mix % 3) as usize] += 1;
        summary.fault_rate_cases[(outcome.knobs.fault_rate % 3) as usize] += 1;
        if !outcome.knobs.fault_rate.is_multiple_of(3) {
            summary.fault_mix_cases[(outcome.knobs.fault_mix % 4) as usize] += 1;
        }
        summary.fault_injections[0] += outcome.faults.transients;
        summary.fault_injections[1] += outcome.faults.upsets;
        summary.fault_injections[2] += outcome.faults.ru_hard;
        summary.device_cases[match outcome.knobs.devices {
            1 => 0,
            2 => 1,
            _ => 2,
        }] += 1;
        if outcome.knobs.devices > 1 {
            let placement_idx = PlacementKind::ALL
                .iter()
                .position(|k| *k == outcome.knobs.placement)
                .expect("derived placement is canonical");
            summary.placement_cases[placement_idx] += 1;
        }
        match &outcome.status {
            CaseStatus::Checked(report) => {
                if let Some(depth_idx) = DEPTHS.iter().position(|&d| d == outcome.knobs.depth) {
                    summary.depth_cases[depth_idx] += 1;
                }
                for o in &report.outcomes {
                    if let Some(c) = summary.coverage.iter_mut().find(|c| c.name == o.name) {
                        c.fired += o.fired;
                        c.violations += o.violations.len() as u64;
                    }
                }
            }
            CaseStatus::Stalled => summary.stalled += 1,
            CaseStatus::StallMismatch(_) => summary.stall_mismatches += 1,
        }
        if outcome.violation_count() > 0 {
            summary.violating_cases += 1;
            if summary.failures.len() < config.max_reported {
                let report = case_report(&fp, registry, config.minimize);
                summary.failures.push(FailureReport {
                    fingerprint: fp,
                    rendered: report.rendered,
                });
            }
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_display_parse_round_trip() {
        for fp in [
            Fingerprint {
                master_seed: 0xDEAD_BEEF,
                case_index: 42,
                fault: None,
            },
            Fingerprint {
                master_seed: u64::MAX,
                case_index: 0,
                fault: Some(Fault::DropExecEnd),
            },
            Fingerprint {
                master_seed: 7,
                case_index: 999,
                fault: Some(Fault::BumpReuses),
            },
        ] {
            let s = fp.to_string();
            assert_eq!(s.parse::<Fingerprint>().unwrap(), fp, "{s}");
        }
        assert!("vopr-xyz".parse::<Fingerprint>().is_err());
        assert!("vopr-10-3-fnope".parse::<Fingerprint>().is_err());
        assert!("nope-10-3".parse::<Fingerprint>().is_err());
    }

    #[test]
    fn knob_derivation_is_deterministic_and_covering() {
        let mut depths = [0u64; 4];
        let mut modes = [0u64; 3];
        let mut mixes = [0u64; 3];
        let mut fault_rates = [0u64; 3];
        let mut fault_mixes = [0u64; 4];
        let mut devices = [0u64; 3];
        let mut placements = [0u64; 3];
        for i in 0..64 {
            let a = CaseKnobs::derive(99, i);
            let b = CaseKnobs::derive(99, i);
            assert_eq!(a, b);
            devices[match a.devices {
                1 => 0,
                2 => 1,
                _ => 2,
            }] += 1;
            if a.devices > 1 {
                placements[PlacementKind::ALL
                    .iter()
                    .position(|k| *k == a.placement)
                    .unwrap()] += 1;
            }
            assert!((1..=3).contains(&a.tenants));
            depths[DEPTHS.iter().position(|&d| d == a.depth).unwrap()] += 1;
            modes[PreemptionMode::ALL
                .iter()
                .position(|m| *m == a.preemption)
                .unwrap()] += 1;
            mixes[(a.qos_mix % 3) as usize] += 1;
            fault_rates[(a.fault_rate % 3) as usize] += 1;
            if !a.fault_rate.is_multiple_of(3) {
                fault_mixes[(a.fault_mix % 4) as usize] += 1;
            }
        }
        assert!(depths.iter().all(|&c| c > 0), "{depths:?}");
        assert!(modes.iter().all(|&c| c > 0), "{modes:?}");
        assert!(mixes.iter().all(|&c| c > 0), "{mixes:?}");
        assert!(fault_rates.iter().all(|&c| c > 0), "{fault_rates:?}");
        assert!(fault_mixes.iter().all(|&c| c > 0), "{fault_mixes:?}");
        assert!(devices.iter().all(|&c| c > 0), "{devices:?}");
        assert!(placements.iter().all(|&c| c > 0), "{placements:?}");
    }

    #[test]
    fn fault_plans_decode_and_mask_by_class() {
        assert!(fault_plan(0, 2, 7).is_off());
        let all = fault_plan(1, 0, 7);
        assert!(all.load_fault_pm > 0 && all.upset_pm > 0 && all.ru_fault_pm > 0);
        let transient = fault_plan(2, 1, 7);
        assert!(transient.load_fault_pm > 0);
        assert_eq!((transient.upset_pm, transient.ru_fault_pm), (0, 0));
        // Give-up quarantines need a finite repair even in the
        // transient-only mix, or one-RU cases would die permanently.
        assert!(transient.repair_latency.is_some());
        let upset = fault_plan(1, 2, 7);
        assert!(upset.upset_pm > 0);
        assert_eq!((upset.load_fault_pm, upset.ru_fault_pm), (0, 0));
        let hard = fault_plan(1, 3, 7);
        assert!(hard.ru_fault_pm > 0 && hard.repair_latency.is_some());
        assert_eq!((hard.load_fault_pm, hard.upset_pm), (0, 0));
        // The plan is a pure function of its inputs (replays depend on
        // this).
        assert_eq!(fault_plan(1, 0, 7), fault_plan(1, 0, 7));
        assert_ne!(fault_plan(1, 0, 7).seed, fault_plan(1, 0, 8).seed);
    }

    #[test]
    fn fault_active_case_validates_clean_and_counts_injections() {
        // Scan forward for a case whose plan keeps all three classes at
        // the hostile rate, and require the run both to stay clean and
        // to actually inject (the campaign coverage gate relies on
        // these tallies).
        let registry = CheckerRegistry::standard();
        let mut injected = CaseFaultCounts::default();
        let mut found_active = false;
        for i in 0..96 {
            let fp = Fingerprint {
                master_seed: 0x0005_EEDC,
                case_index: i,
                fault: None,
            };
            let case = build_case(&fp);
            if case.knobs.fault_rate.is_multiple_of(3) {
                continue;
            }
            found_active = true;
            let outcome = run_case(&fp, &case, &registry);
            assert_eq!(
                outcome.violation_count(),
                0,
                "fault-active case {fp} violated:\n{}",
                outcome.render()
            );
            injected.transients += outcome.faults.transients;
            injected.upsets += outcome.faults.upsets;
            injected.ru_hard += outcome.faults.ru_hard;
            if injected.transients > 0 && injected.upsets > 0 && injected.ru_hard > 0 {
                break;
            }
        }
        assert!(found_active, "96 cases cover a fault-active knob draw");
        assert!(
            injected.transients > 0 && injected.upsets > 0 && injected.ru_hard > 0,
            "every fault class injects within 96 cases, got {injected:?}"
        );
    }

    #[test]
    fn qos_cases_materialise_classes_and_modes() {
        // Scan forward for a case whose knobs select a non-uniform mix
        // under a non-Off mode, and check the decoration landed.
        let found = (0..64).find_map(|i| {
            let fp = Fingerprint {
                master_seed: 0x0005_EEDC,
                case_index: i,
                fault: None,
            };
            let case = build_case(&fp);
            (!case.knobs.qos_mix.is_multiple_of(3) && case.knobs.preemption != PreemptionMode::Off)
                .then_some(case)
        });
        let case = found.expect("64 cases cover a qos-active combination");
        assert_eq!(case.cfg.preemption, case.knobs.preemption);
        let spec = qos_mix_spec(case.knobs.qos_mix);
        for (i, job) in case.jobs.iter().enumerate() {
            if (i + 1) % spec.stride == 0 {
                assert_eq!(job.qos.priority, spec.priority);
                assert!(job.qos.deadline.is_some());
            } else {
                assert!(job.qos.is_default());
            }
        }
    }

    #[test]
    fn clean_case_replays_clean() {
        let registry = CheckerRegistry::standard();
        let fp = Fingerprint {
            master_seed: 0x0005_EEDC,
            case_index: 0,
            fault: None,
        };
        let a = case_report(&fp, &registry, true);
        let b = case_report(&fp, &registry, true);
        assert_eq!(a.rendered, b.rendered);
    }

    /// The first multi-device, multi-tenant case within `limit` cases
    /// of the default master seed (skipping stalled draws when a
    /// checked one is required).
    fn find_fleet_case(limit: u64, registry: &CheckerRegistry) -> (Fingerprint, Case) {
        for i in 0..limit {
            let fp = Fingerprint {
                master_seed: 0x0005_EEDC,
                case_index: i,
                fault: None,
            };
            let case = build_case(&fp);
            if case.knobs.devices > 1 && case.knobs.tenants > 1 {
                let outcome = run_case(&fp, &case, registry);
                if matches!(outcome.status, CaseStatus::Checked(_)) {
                    return (fp, case);
                }
            }
        }
        panic!("{limit} cases cover a checked multi-device, multi-tenant draw");
    }

    #[test]
    fn fleet_case_validates_clean_and_fires_fleet_checkers() {
        let registry = CheckerRegistry::standard();
        let (fp, case) = find_fleet_case(64, &registry);
        let outcome = run_case(&fp, &case, &registry);
        assert_eq!(
            outcome.violation_count(),
            0,
            "fleet case {fp} violated:\n{}",
            outcome.render()
        );
        let CaseStatus::Checked(report) = &outcome.status else {
            panic!("find_fleet_case returned a non-checked case");
        };
        for name in [
            "tenant-isolation",
            "placement-residency",
            "fleet-accounting",
        ] {
            let checker = report.outcome(name).expect("fleet checker is registered");
            assert!(checker.fired > 0, "{name} never fired on a fleet case");
        }
        // Every pooled device also went through the single-device
        // checkers against its partitioned reference.
        let identity = report.outcome("pooled-identity").expect("registered");
        assert!(identity.fired > 0);
    }

    #[test]
    fn corrupted_fleet_case_trips_checkers_and_minimises_to_one_device() {
        let registry = CheckerRegistry::standard();
        let (clean_fp, case) = find_fleet_case(64, &registry);
        let fp = Fingerprint {
            fault: Some(Fault::BumpReuses),
            ..clean_fp
        };
        let outcome = run_case(&fp, &case, &registry);
        assert!(
            outcome.violation_count() > 0,
            "BumpReuses on device 0 must trip a checker"
        );
        // The corruption survives the fleet-strip (it applies to the
        // single remaining device just the same), so the minimiser must
        // keep that step.
        let (min_case, summary) = minimize_case(&fp, &case, &registry);
        assert_eq!(min_case.knobs.devices, 1, "{:?}", summary.steps);
        assert!(
            summary
                .steps
                .iter()
                .any(|s| s.contains("fleet -> single device")),
            "{:?}",
            summary.steps
        );
    }
}
