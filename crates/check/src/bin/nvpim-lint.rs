//! `nvpim-lint` — run every static verification pass and report findings.
//!
//! ```text
//! Usage: nvpim-lint [options]
//!
//! Options:
//!   --widths LIST    comma-separated operand widths (default 4,8,16,32)
//!   --configs LIST   comma-separated balance configs (default: all 18)
//!   --epochs N       epoch boundaries per mapping check (default 4)
//!   --iters N        conservation-run iterations (default 24)
//!   --seed N         seed for every seeded mapper (default 42)
//!   --equiv          run only the equivalence/optimization pass family
//!   --opt            print the writes-per-op optimization table
//!   --json FILE      write the JSON findings report to FILE (`-` = stdout)
//!   --manifest FILE  write a RunManifest artifact to FILE
//!   --quiet          print the human-readable summary only with findings
//! ```
//!
//! Exit status: 0 when clean, 1 when any pass produced a finding, 2 on
//! usage errors.

use std::path::PathBuf;
use std::time::Instant;

use nvpim_check::driver::{render_opt_table, run_all, run_equiv_pass, CheckOptions};
use nvpim_check::Report;
use nvpim_obs::{Json, RunManifest};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h" || a == "help") {
        println!("{USAGE}");
        return;
    }

    let mut opts = CheckOptions::default();
    if let Some(list) = flag_value(&args, "--widths") {
        opts.widths = list
            .split(',')
            .map(|w| {
                w.trim()
                    .parse()
                    .unwrap_or_else(|_| die(&format!("--widths: `{w}` is not a positive integer")))
            })
            .collect();
        if opts.widths.is_empty() {
            die("--widths needs at least one width");
        }
    }
    if let Some(list) = flag_value(&args, "--configs") {
        opts.configs = list
            .split(',')
            .map(|c| c.trim().parse().unwrap_or_else(|e| die(&format!("--configs: {e}"))))
            .collect();
        if opts.configs.is_empty() {
            die("--configs needs at least one configuration");
        }
    }
    if let Some(v) = flag_value(&args, "--epochs") {
        opts.epochs = v.parse().unwrap_or_else(|_| die("--epochs needs a non-negative integer"));
    }
    if let Some(v) = flag_value(&args, "--iters") {
        opts.conservation_iters =
            v.parse().unwrap_or_else(|_| die("--iters needs a positive integer"));
    }
    if let Some(v) = flag_value(&args, "--seed") {
        opts.seed = v.parse().unwrap_or_else(|_| die("--seed needs an integer"));
    }
    let json_out = flag_value(&args, "--json").map(PathBuf::from);
    let manifest_out = flag_value(&args, "--manifest").map(PathBuf::from);
    let quiet = args.iter().any(|a| a == "--quiet");
    let equiv_only = args.iter().any(|a| a == "--equiv");
    let opt_table = args.iter().any(|a| a == "--opt");

    let start = Instant::now();
    let (report, rows) = if equiv_only {
        // Equivalence/optimization family only: optimize every builder at
        // every requested width and prove the results.
        let mut report = Report::new();
        let rows = run_equiv_pass(&opts, &mut report);
        (report, rows)
    } else if opt_table {
        // Full pass set, reusing one equiv run for the table.
        let mut report = Report::new();
        nvpim_check::driver::run_netlist_pass(&opts, &mut report);
        let rows = run_equiv_pass(&opts, &mut report);
        nvpim_check::driver::run_mapping_pass(&opts, &mut report);
        nvpim_check::driver::run_conservation_pass(&opts, &mut report);
        (report, rows)
    } else {
        (run_all(&opts), Vec::new())
    };

    if opt_table {
        print!("{}", render_opt_table(&rows));
    }
    if prints_summary(quiet, report.is_clean()) {
        print!("{}", report.render_summary());
    }
    if let Some(path) = &json_out {
        let doc = report.to_json().render_pretty();
        if path.as_os_str() == "-" {
            println!("{doc}");
        } else if let Err(e) = std::fs::write(path, doc) {
            die(&format!("cannot write {}: {e}", path.display()));
        }
    }
    if let Some(path) = &manifest_out {
        let configs: Vec<Json> = opts.configs.iter().map(|c| Json::from(c.to_string())).collect();
        let widths: Vec<Json> = opts.widths.iter().map(|&w| Json::from(w as u64)).collect();
        let doc = RunManifest::new("nvpim-lint")
            .with_command(std::env::args())
            .with_config(
                Json::object()
                    .with("widths", widths)
                    .with("configs", configs)
                    .with("epochs", opts.epochs)
                    .with("iters", opts.conservation_iters)
                    .with("seed", opts.seed),
            )
            .with_config_entry("report", report.to_json())
            .with_wall_ns(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX))
            .render();
        if let Err(e) = std::fs::write(path, doc) {
            die(&format!("cannot write {}: {e}", path.display()));
        }
    }

    std::process::exit(i32::from(!report.is_clean()));
}

/// Whether the human-readable summary is printed: always, unless `--quiet`
/// and the report is clean. A failing run prints its findings either way,
/// so a quiet CI log that exits 1 still says why.
fn prints_summary(quiet: bool, clean: bool) -> bool {
    !(quiet && clean)
}

/// The value following `--flag VALUE`, if present.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|pos| {
        args.get(pos + 1).cloned().unwrap_or_else(|| die(&format!("{flag} needs a value")))
    })
}

fn die(msg: &str) -> ! {
    eprintln!("nvpim-lint: {msg}");
    std::process::exit(2);
}

const USAGE: &str = "\
Usage: nvpim-lint [options]

Runs the netlist, mapping, and conservation verification passes over the
full circuit library and balance-strategy matrix.

Options:
  --widths LIST    comma-separated operand widths (default 4,8,16,32)
  --configs LIST   comma-separated balance configs, e.g. StxSt,RaxBs+Hw
                   (default: all 18)
  --epochs N       epoch boundaries per mapping check (default 4)
  --iters N        conservation-run iterations (default 24)
  --seed N         seed for every seeded mapper (default 42)
  --equiv          run only the equivalence/optimization pass family
                   (optimize-then-prove over every circuit builder)
  --opt            print the writes-per-op table (seed vs optimized)
  --json FILE      write the JSON findings report to FILE (`-` = stdout)
  --manifest FILE  write a RunManifest artifact to FILE
  --quiet          print the human-readable summary only when there are
                   findings

Exit status: 0 clean, 1 findings, 2 usage error.";

#[cfg(test)]
mod tests {
    use super::prints_summary;

    #[test]
    fn quiet_suppresses_only_a_clean_summary() {
        assert!(prints_summary(false, true), "a clean summary prints without --quiet");
        assert!(prints_summary(false, false), "findings print without --quiet");
        assert!(!prints_summary(true, true), "--quiet suppresses a clean summary");
        assert!(prints_summary(true, false), "--quiet still prints findings");
    }
}
