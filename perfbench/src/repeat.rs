//! `perfbench repeat --seed <n> --fresh-seed <m>`: the repeatability
//! check. Each workload's traced mode runs twice with seed `n`, each in
//! a fresh process; the two runs must print identical deterministic
//! counts (cache and memo hits and misses, solver and MVA iterations,
//! simulator events, plan probes, reply bytes) and identical digests of
//! the model and simulator outputs and reply bodies, and both must pass
//! every check. A third run on seed `m`, one not used while the
//! benchmark was tuned, must pass every check too.

use std::process::Command;

use crate::Workload;

/// One traced run in a child process: whether it passed its checks,
/// and its deterministic lines (`count …` and `digest …`).
fn traced(w: Workload, seed: u64) -> Result<(bool, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "1"])
        .output()
        .map_err(|e| format!("spawn traced run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    for l in text.lines().filter(|l| l.starts_with("CHECK FAILED")) {
        println!("  {} seed {seed}: {l}", w.name());
    }
    let lines = text
        .lines()
        .filter(|l| l.starts_with("count ") || l.starts_with("digest "))
        .map(str::to_string)
        .collect();
    Ok((out.status.success(), lines))
}

fn flag(args: &[String], name: &str, default: u64) -> Option<u64> {
    match args.iter().position(|a| a == name) {
        None => Some(default),
        Some(i) => args.get(i + 1)?.parse().ok(),
    }
}

/// Returns the process exit code: 0 when every workload repeats
/// exactly and passes its checks on both seeds.
pub fn run(args: &[String]) -> i32 {
    let (Some(seed), Some(fresh)) = (flag(args, "--seed", 1), flag(args, "--fresh-seed", 7919))
    else {
        eprintln!("usage: perfbench repeat --seed <n> --fresh-seed <m>");
        return 2;
    };
    let mut ok = true;
    for w in Workload::ALL {
        let runs = [traced(w, seed), traced(w, seed), traced(w, fresh)];
        let [Ok((a_ok, a)), Ok((b_ok, b)), Ok((c_ok, _))] = runs else {
            println!("{}: could not run: {:?}", w.name(), runs.map(|r| r.err()));
            ok = false;
            continue;
        };
        let same = a == b && !a.is_empty();
        println!(
            "{}: seed {seed} twice: {} deterministic lines {}; checks {}; fresh seed {fresh}: checks {}",
            w.name(),
            a.len(),
            if same { "identical" } else { "DIFFER" },
            if a_ok && b_ok { "pass" } else { "FAIL" },
            if c_ok { "pass" } else { "FAIL" },
        );
        if !same {
            for (x, y) in a.iter().zip(&b).filter(|(x, y)| x != y) {
                println!("  {x}  vs  {y}");
            }
        }
        ok &= same && a_ok && b_ok && c_ok;
    }
    println!("repeat: {}", if ok { "ok" } else { "FAILED" });
    i32::from(!ok)
}
