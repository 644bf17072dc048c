//! `paper` — regenerate the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p dmac-bench -- fig9          # one experiment
//! cargo run --release -p dmac-bench -- fig6 table4   # several, in order
//! cargo run --release -p dmac-bench -- all           # the full sweep
//! ```
//!
//! Every experiment prints its table and asserts its own invariants; a
//! panic is a failure. An unknown subcommand exits non-zero with the list.

mod faults;
mod fig10;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod table4;

/// One subcommand: its name, what it regenerates, and its entry point.
type Experiment = (&'static str, &'static str, fn());

/// The subcommand table, in `all` order.
const EXPERIMENTS: [Experiment; 7] = [
    ("fig6", "GNMF accumulated time + communication", fig6::run),
    ("fig7", "In-Place vs Buffer memory", fig7::run),
    ("fig8", "block-size influence", fig8::run),
    ("fig9", "PageRank / LR / CF / SVD", fig9::run),
    ("fig10", "scalability in data size and workers", fig10::run),
    (
        "table4",
        "ScaLAPACK / SciDB / SystemML-S / DMac",
        table4::run,
    ),
    ("faults", "recovery overhead vs fault-free", faults::run),
];

/// Resolve command-line names to experiments (`all` expands to the whole
/// table). No names, or any unknown one, is an error carrying the usage.
fn select(names: &[String]) -> Result<Vec<Experiment>, String> {
    let mut picked = Vec::new();
    for name in names {
        match EXPERIMENTS.iter().find(|e| e.0 == name) {
            Some(e) => picked.push(*e),
            None if name == "all" => picked.extend(EXPERIMENTS),
            None => return Err(format!("unknown experiment '{name}'\n{}", usage())),
        }
    }
    if picked.is_empty() {
        return Err(usage());
    }
    Ok(picked)
}

fn usage() -> String {
    let mut s = String::from("usage: paper <experiment>... | all\n");
    for (name, what, _) in EXPERIMENTS {
        s.push_str(&format!("  {name:<9} {what}\n"));
    }
    s
}

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    match select(&names) {
        Ok(picked) => picked.iter().for_each(|(_, _, run)| run()),
        Err(msg) => {
            eprint!("{msg}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(picked: &[Experiment]) -> Vec<&'static str> {
        picked.iter().map(|e| e.0).collect()
    }

    #[test]
    fn all_is_the_whole_table_once_in_order() {
        let all = select(&["all".to_string()]).unwrap();
        assert_eq!(names(&all), names(&EXPERIMENTS));
        let mut sorted = names(&all);
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), EXPERIMENTS.len(), "duplicate subcommand");
        assert!(!sorted.contains(&"all"), "`all` must not shadow a row");
    }

    #[test]
    fn named_experiments_run_in_the_order_given() {
        let picked = select(&["table4".to_string(), "fig6".to_string()]).unwrap();
        assert_eq!(names(&picked), ["table4", "fig6"]);
    }

    #[test]
    fn unknown_or_missing_subcommand_is_an_error_listing_every_name() {
        for args in [vec!["fig99".to_string()], vec![]] {
            let err = select(&args).unwrap_err();
            for (name, _, _) in EXPERIMENTS {
                assert!(err.contains(name), "usage omits {name}: {err}");
            }
            assert!(err.contains("all"));
        }
        assert!(select(&["fig6".to_string(), "nope".to_string()]).is_err());
    }
}
