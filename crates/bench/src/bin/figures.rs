//! Regenerate the paper's evaluation figures and check their claims.
//!
//! ```text
//! cargo run -p fg-bench --release --bin figures            # everything
//! cargo run -p fg-bench --release --bin figures -- fig2 fig5
//! cargo run -p fg-bench --release --bin figures -- --list
//! cargo run -p fg-bench --release --bin figures -- --bars fig2   # bar charts
//! ```
//!
//! Each figure prints as a text table of relative prediction errors, is
//! written to `target/figures/<id>.json`, and is then checked against
//! the claims of its experiment-table row: one `ok`/`FAIL` line per
//! claim. Regenerating `ext-trace` also exports each paper application's
//! golden-configuration trace to `target/figures/traces/` (`<app>.jsonl`,
//! the canonical record format, and `<app>.chrome.json`, loadable in
//! `chrome://tracing` / Perfetto); `ext-sched` exports its heavy-load
//! scheduler traces to `sched/` and `ext-obs` its incident bundles to
//! `incidents/`.
//!
//! Exit status: 0 when every claim holds, 1 when one is violated (or an
//! output cannot be written), 2 on an unknown figure id.

use fg_bench::figures::registry;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: figures [--bars] [--list | <figure id>...]";

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let bars = if let Some(pos) = args.iter().position(|a| a == "--bars") {
        args.remove(pos);
        true
    } else {
        false
    };
    let registry = registry();
    if args.iter().any(|a| a == "--list") {
        for e in &registry {
            println!("{}", e.id);
        }
        return ExitCode::SUCCESS;
    }
    let mut selected = Vec::new();
    for a in &args {
        let Some(e) = registry.iter().find(|e| e.id == a) else {
            eprintln!("unknown figure {a:?}; --list names them all\n{USAGE}");
            return ExitCode::from(2);
        };
        selected.push(e);
    }
    if args.is_empty() {
        selected = registry.iter().collect();
    }

    let out_dir = std::path::Path::new("target/figures");
    std::fs::create_dir_all(out_dir).expect("create target/figures");
    let mut stdout = std::io::stdout().lock();
    let mut failures = Vec::new();
    for e in selected {
        let started = Instant::now();
        let figure = (e.generate)(e.id);
        let elapsed = started.elapsed();
        let rendered = if bars { figure.render_bars() } else { figure.render() };
        write!(stdout, "{rendered}").expect("stdout");
        writeln!(stdout, "  [regenerated in {:.1}s]", elapsed.as_secs_f64()).expect("stdout");
        let path = out_dir.join(format!("{}.json", e.id));
        let json = serde_json::to_string_pretty(&figure).expect("serialize figure");
        let written =
            std::fs::write(&path, json).and_then(|()| e.export.map_or(Ok(()), |f| f(out_dir)));
        if let Err(err) = written {
            eprintln!("{}: writing outputs failed: {err}", e.id);
            return ExitCode::FAILURE;
        }
        for claim in e.claims() {
            let holds = (claim.holds)(&figure);
            writeln!(stdout, "{} {}: {}", if holds { "ok  " } else { "FAIL" }, e.id, claim.what)
                .expect("stdout");
            if !holds {
                failures.push(format!("{}: {}", e.id, claim.what));
            }
        }
        writeln!(stdout).expect("stdout");
    }

    if failures.is_empty() {
        writeln!(stdout, "all figure claims hold").expect("stdout");
        ExitCode::SUCCESS
    } else {
        writeln!(stdout, "{} claim(s) violated:", failures.len()).expect("stdout");
        for f in &failures {
            writeln!(stdout, "  - {f}").expect("stdout");
        }
        ExitCode::FAILURE
    }
}
