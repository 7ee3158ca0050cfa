//! The VOPR: a deterministic fuzz harness driving seeded scenario ×
//! policy × arrival × prefetch × QoS × fault × fleet campaigns through
//! the named invariant-checker registry.
//!
//! ```text
//! cargo run --release -p rtr-bench --bin vopr -- smoke
//! cargo run --release -p rtr-bench --bin vopr -- --seed 7 --cases 5000
//! cargo run --release -p rtr-bench --bin vopr -- --list
//! cargo run --release -p rtr-bench --bin vopr -- --disable pooled-identity --cases 200
//! cargo run --release -p rtr-bench --bin vopr -- --replay vopr-000000000005eedc-17
//! ```
//!
//! Every failing case prints a fingerprint
//! (`vopr-<master_seed>-<case_index>`) that `--replay` re-runs to the
//! byte-identical violation report (greedy-minimised reproduction
//! included unless `--no-minimize`). `smoke` is the CI entry point: a
//! fixed master seed, 1000 cases, all checkers enabled; it writes the
//! per-checker coverage summary to `results/vopr_coverage.csv`, fails
//! on any violation, and fails if any registered checker never fired
//! or any required depth, preemption mode, QoS class mix, runtime
//! fault-rate class, fault-class mix, fault class, pooled device count
//! or placement policy went unexercised.

use rtr_manager::{CheckerRegistry, PlacementKind, PreemptionMode};
use rtr_workload::vopr::{
    case_report, fault_mix_label, fault_rate_label, qos_mix_label, run_campaign, CampaignConfig,
    CampaignSummary, Fingerprint, DEPTHS,
};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
usage: vopr [smoke] [options]
  smoke              CI campaign: fixed seed, 1000 cases (override with
                     --cases for the nightly tier), all checkers,
                     coverage gate, results/vopr_coverage.csv
options:
  --seed N           master seed (decimal or 0x hex; default 0x5EEDC)
  --cases N          number of cases (default 1000)
  --enable a,b,...   enable only these checkers (disables the rest)
  --disable a,b,...  disable these checkers
  --replay FP        replay one fingerprint (vopr-<seed>-<case>[-f<fault>])
  --no-minimize      skip the greedy minimiser on failing cases
  --list             list registered checkers and exit
";

struct Args {
    smoke: bool,
    seed: u64,
    cases: Option<u64>,
    enable: Vec<String>,
    disable: Vec<String>,
    replay: Option<String>,
    minimize: bool,
    list: bool,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|e| format!("bad number '{s}': {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        seed: CampaignConfig::default().master_seed,
        cases: None,
        enable: Vec::new(),
        disable: Vec::new(),
        replay: None,
        minimize: true,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "smoke" => args.smoke = true,
            "--seed" => args.seed = parse_u64(&value("--seed")?)?,
            "--cases" => args.cases = Some(parse_u64(&value("--cases")?)?),
            "--enable" => args
                .enable
                .extend(value("--enable")?.split(',').map(str::to_string)),
            "--disable" => args
                .disable
                .extend(value("--disable")?.split(',').map(str::to_string)),
            "--replay" => args.replay = Some(value("--replay")?),
            "--no-minimize" => args.minimize = false,
            "--list" => args.list = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(args)
}

fn build_registry(args: &Args) -> Result<CheckerRegistry, String> {
    let mut registry = CheckerRegistry::standard();
    if !args.enable.is_empty() {
        for name in registry.names() {
            registry.set_enabled(name, false).expect("registered name");
        }
        for name in &args.enable {
            registry
                .set_enabled(name, true)
                .map_err(|e| e.to_string())?;
        }
    }
    for name in &args.disable {
        registry
            .set_enabled(name, false)
            .map_err(|e| e.to_string())?;
    }
    Ok(registry)
}

fn print_summary(summary: &CampaignSummary) {
    println!(
        "\n{} cases: {} violating, {} stalled, {} stall-mismatched",
        summary.cases, summary.violating_cases, summary.stalled, summary.stall_mismatches
    );
    print!("depths (checked cases):");
    for (d, n) in DEPTHS.iter().zip(summary.depth_cases) {
        print!(" {d}={n}");
    }
    print!("\npreemption modes:");
    for (m, n) in PreemptionMode::ALL.iter().zip(summary.preemption_cases) {
        print!(" {}={n}", m.label());
    }
    print!("\nqos mixes:");
    for (mix, n) in summary.qos_mix_cases.iter().enumerate() {
        print!(" {}={n}", qos_mix_label(mix as u8));
    }
    print!("\nfault rates:");
    for (rate, n) in summary.fault_rate_cases.iter().enumerate() {
        print!(" {}={n}", fault_rate_label(rate as u8));
    }
    print!("\nfault mixes (fault-active cases):");
    for (mix, n) in summary.fault_mix_cases.iter().enumerate() {
        print!(" {}={n}", fault_mix_label(mix as u8));
    }
    print!("\nfault injections:");
    for (name, n) in ["transient-load", "upset", "ru-hard"]
        .iter()
        .zip(summary.fault_injections)
    {
        print!(" {name}={n}");
    }
    print!("\nfleet widths:");
    for (width, n) in [1usize, 2, 4].iter().zip(summary.device_cases) {
        print!(" {width}-device={n}");
    }
    print!("\nplacements (multi-device cases):");
    for (kind, n) in PlacementKind::ALL.iter().zip(summary.placement_cases) {
        print!(" {}={n}", kind.label());
    }
    println!("\n\nchecker coverage (fired / violations):");
    for c in &summary.coverage {
        println!("  {:<22} {:>10} / {}", c.name, c.fired, c.violations);
    }
    for failure in &summary.failures {
        println!("\n--- failing case {} ---", failure.fingerprint);
        print!("{}", failure.rendered);
    }
    if summary.violating_cases as usize > summary.failures.len() {
        println!(
            "({} further failing cases not shown)",
            summary.violating_cases as usize - summary.failures.len()
        );
    }
}

/// The coverage gate: every registered checker fired, the depths the
/// acceptance envelope names (0 and 4) were both exercised by checked
/// cases, every preemption mode and QoS class mix was exercised at
/// least once, every runtime fault-rate class and fault-class mix ran,
/// every fault class actually injected, and the fleet dimension was
/// covered (2- and 4-device pools both ran, and every placement policy
/// routed at least one multi-device case).
fn coverage_gate(summary: &CampaignSummary) -> Result<(), String> {
    let unfired = summary.unfired();
    if !unfired.is_empty() {
        return Err(format!("checkers never fired: {unfired:?}"));
    }
    let fault_holes = summary.fault_holes();
    if !fault_holes.is_empty() {
        return Err(format!("fault classes never injected: {fault_holes:?}"));
    }
    let fleet_holes = summary.fleet_holes();
    if !fleet_holes.is_empty() {
        return Err(format!("fleet dimensions never ran: {fleet_holes:?}"));
    }
    for (rate, n) in summary.fault_rate_cases.iter().enumerate() {
        if *n == 0 {
            return Err(format!(
                "fault rate class '{}' never ran",
                fault_rate_label(rate as u8)
            ));
        }
    }
    for (mix, n) in summary.fault_mix_cases.iter().enumerate() {
        if *n == 0 {
            return Err(format!(
                "fault class mix '{}' never ran",
                fault_mix_label(mix as u8)
            ));
        }
    }
    for (d, n) in DEPTHS.iter().zip(summary.depth_cases) {
        if (*d == 0 || *d == 4) && n == 0 {
            return Err(format!("prefetch depth {d} had no checked case"));
        }
    }
    for (m, n) in PreemptionMode::ALL.iter().zip(summary.preemption_cases) {
        if n == 0 {
            return Err(format!("preemption mode '{}' never ran", m.label()));
        }
    }
    for (mix, n) in summary.qos_mix_cases.iter().enumerate() {
        if *n == 0 {
            return Err(format!(
                "qos class mix '{}' never ran",
                qos_mix_label(mix as u8)
            ));
        }
    }
    Ok(())
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let registry = build_registry(&args)?;

    if args.list {
        println!("registered checkers:");
        for (name, description, enabled) in registry.rows() {
            let mark = if enabled { "on " } else { "off" };
            println!("  [{mark}] {name:<22} {description}");
        }
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(fp_str) = &args.replay {
        let fp: Fingerprint = fp_str.parse()?;
        let report = case_report(&fp, &registry, args.minimize);
        print!("{}", report.rendered);
        return Ok(if report.outcome.violation_count() == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let config = if args.smoke {
        // The CI campaign is pinned: same seed, same cases, all
        // checkers — its pass/fail must not drift run to run. The
        // nightly tier reuses the pinned seed and the coverage gate
        // but scales the case count with an explicit `--cases`.
        CampaignConfig {
            cases: args.cases.unwrap_or(CampaignConfig::default().cases),
            minimize: args.minimize,
            ..CampaignConfig::default()
        }
    } else {
        CampaignConfig {
            master_seed: args.seed,
            cases: args.cases.unwrap_or(1000),
            minimize: args.minimize,
            ..CampaignConfig::default()
        }
    };

    println!(
        "vopr campaign: master_seed={:#018x} cases={} checkers={}",
        config.master_seed,
        config.cases,
        registry
            .rows()
            .iter()
            .filter(|(_, _, enabled)| *enabled)
            .count()
    );
    let summary = run_campaign(&config, &registry);
    print_summary(&summary);

    if args.smoke {
        let results = Path::new("results");
        std::fs::create_dir_all(results).map_err(|e| format!("create results/: {e}"))?;
        let csv_path = results.join("vopr_coverage.csv");
        std::fs::write(&csv_path, summary.coverage_csv())
            .map_err(|e| format!("write {}: {e}", csv_path.display()))?;
        println!("\ncoverage summary written to {}", csv_path.display());
        coverage_gate(&summary)?;
        println!(
            "coverage gate: all checkers fired; all required depths, preemption \
             modes, qos mixes, fault rates, fault mixes, pool widths and \
             placement policies ran; every fault class injected"
        );
    }

    Ok(if summary.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("vopr: {msg}");
            ExitCode::FAILURE
        }
    }
}
